"""The package's original ``kalman_filter``, kept verbatim as the reference.

``isd.oracles.kalman.kalman_filter`` skips the SVD behind ``np.linalg.cond``
when the innovation covariance is 1x1 and refuses a non-finite one; every
array it returns must still equal this copy's byte for byte.
"""

from __future__ import annotations

import numpy as np

from isd.errors import NumericalSingularityError
from isd.oracles.kalman import CONDITION_LIMIT, KalmanModel, KalmanResult


def kalman_filter(model: KalmanModel) -> KalmanResult:
    """Run the five-recurrence filter over the model's sequences.

    For each step k >= 1:

        x(k|k-1) = A x(k-1|k-1) + B u(k)
        P(k|k-1) = A P(k-1|k-1) A' + Q
        G(k)     = P(k|k-1) H' (H P(k|k-1) H' + R)^-1
        x(k|k)   = x(k|k-1) + G(k) (z(k) - H x(k|k-1))
        P(k|k)   = (I - G(k) H) P(k|k-1)

    Raises
    ------
    NumericalSingularityError
        If the innovation covariance H P H' + R has condition number
        above 1e12 at any step.
    """
    A, B, H, Q, R = model.A, model.B, model.H, model.Q, model.R
    n = A.shape[0]
    eye = np.eye(n)
    x = model.x0.copy()
    P = model.P0.copy()
    pred_x, pred_P, gains, xs, Ps = [], [], [], [], []
    for u, z in zip(model.us, model.zs):
        x_pred = A @ x + B @ u
        P_pred = A @ P @ A.T + Q
        S = H @ P_pred @ H.T + R
        if np.linalg.cond(S) > CONDITION_LIMIT:
            raise NumericalSingularityError(
                "innovation covariance too ill-conditioned to invert"
            )
        G = P_pred @ H.T @ np.linalg.inv(S)
        x = x_pred + G @ (z - H @ x_pred)
        P = (eye - G @ H) @ P_pred
        pred_x.append(x_pred)
        pred_P.append(P_pred)
        gains.append(G)
        xs.append(x)
        Ps.append(P)
    return KalmanResult(
        predicted_states=np.array(pred_x),
        predicted_covariances=np.array(pred_P),
        gains=np.array(gains),
        states=np.array(xs),
        covariances=np.array(Ps),
    )
