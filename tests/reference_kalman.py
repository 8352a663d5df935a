"""The package's original ``kalman_filter`` and ``simulate_tracking``, kept
verbatim as the references.

``isd.oracles.kalman.kalman_filter`` refuses non-finite inputs and a
non-finite innovation covariance, skips the SVD behind ``np.linalg.cond``
when the innovation covariance is 1x1 and inverts it as the reciprocal of
its entry, sends its products through ``np.dot`` (through ``@`` when the
state is 1-dimensional) and writes into arrays allocated up front.
``isd.oracles.kalman.simulate_tracking`` draws all its noise in one call
and computes the measurements as one vector expression.  Every array
either returns must still equal this copy's byte for byte.
"""

from __future__ import annotations

import numpy as np

from isd.errors import NumericalSingularityError
from isd.oracles.kalman import CONDITION_LIMIT, KalmanModel, KalmanResult, TrackingRun


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


def simulate_tracking(
    steps: int = 1000,
    dt: float = 1.0,
    process_noise: float = 1e-4,
    measurement_noise: float = 1.0,
    seed: int = 0,
) -> TrackingRun:
    """Simulate 1-D position/velocity motion observed through noisy
    position measurements, packaged as a KalmanModel ready to filter."""
    rng = np.random.default_rng(seed)
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.zeros((2, 1))
    H = np.array([[1.0, 0.0]])
    q = process_noise
    Q = q * np.array(
        [[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]]
    )
    R = np.array([[measurement_noise]])
    x = np.array([0.0, 1.0])
    truth = np.empty((steps, 2))
    zs = np.empty((steps, 1))
    chol = np.linalg.cholesky(Q + 1e-18 * np.eye(2))
    for k in range(steps):
        x = A @ x + chol @ rng.standard_normal(2)
        truth[k] = x
        zs[k] = x[0] + rng.standard_normal() * np.sqrt(measurement_noise)
    model = KalmanModel(
        A=A,
        B=B,
        H=H,
        Q=Q,
        R=R,
        x0=np.array([0.0, 1.0]),
        P0=np.eye(2),
        us=np.zeros((steps, 1)),
        zs=zs,
    )
    times = np.arange(1, steps + 1) * dt
    return TrackingRun(model=model, times=times, true_positions=truth[:, 0].copy())
