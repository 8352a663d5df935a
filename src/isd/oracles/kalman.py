"""Discrete linear Kalman filtering as a minimum-distortion reflection.

The filter's five recurrences produce, from noisy measurements, state
estimates whose distance to the true states is (in the mean-square
sense) no worse than reading the measurements directly.  This module
implements the recurrences, a constant-velocity tracking simulation to
exercise them, and the bridge that packages filter output as a
reflection map for ``measures.distortion``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import NumericalSingularityError
from ..model import Element, Information
from ..timeset import TimeSet
from ..values import EntityId, Value, objective

MAX_DIM = 8
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class KalmanModel:
    """A linear-Gaussian state-space model plus its observed sequences.

    Parameters
    ----------
    A : (n, n) array
        State transition matrix.
    B : (n, m) array
        Control input matrix.
    H : (p, n) array
        Measurement matrix.
    Q : (n, n) array
        Process noise covariance.
    R : (p, p) array
        Measurement noise covariance.
    x0 : (n,) array
        Initial state estimate.
    P0 : (n, n) array
        Initial estimate covariance.
    us : (k, m) array
        Control inputs, one row per step.
    zs : (k, p) array
        Measurements, one row per step.

    The model keeps float copies, not the caller's arrays.
    """

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    us: np.ndarray
    zs: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "H", "Q", "R", "x0", "P0", "us", "zs"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        n = self.A.shape[0]
        p = self.H.shape[0]
        if n > MAX_DIM or p > MAX_DIM:
            raise ValueError(f"state/measurement dimension above {MAX_DIM}")
        if self.A.shape != (n, n) or self.H.shape != (p, n):
            raise ValueError("A must be square and H must map state to measurement")
        if self.Q.shape != (n, n) or self.R.shape != (p, p) or self.P0.shape != (n, n):
            raise ValueError("covariance shapes do not match the state/measurement dims")
        if len(self.us) != len(self.zs):
            raise ValueError("need one control input per measurement")


@dataclass(frozen=True)
class KalmanResult:
    """Per-step filter output.

    Attributes
    ----------
    predicted_states : (k, n) array of x(k|k-1)
    predicted_covariances : (k, n, n) array of P(k|k-1)
    gains : (k, n, p) array of G(k)
    states : (k, n) array of x(k|k)
    covariances : (k, n, n) array of P(k|k)
    """

    predicted_states: np.ndarray
    predicted_covariances: np.ndarray
    gains: np.ndarray
    states: np.ndarray
    covariances: np.ndarray


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
        If ``x0``, ``B``, ``us`` or ``zs`` has a non-finite entry, or the
        innovation covariance H P H' + R has a non-finite entry or
        condition number above 1e12 at any step.  A nonzero scalar has
        condition number 1, so a 1x1 covariance fails only at zero, and
        its SVD is skipped.  The other matrices all reach the innovation
        covariance, so their non-finite entries fail there.
    """
    for name in ("x0", "B", "us", "zs"):
        if not np.isfinite(getattr(model, name)).all():
            raise NumericalSingularityError(f"{name} has a non-finite entry")
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
        if not np.isfinite(S).all():
            raise NumericalSingularityError("innovation covariance is not finite")
        if (S[0, 0] == 0) if S.shape == (1, 1) else (np.linalg.cond(S) > CONDITION_LIMIT):
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


@dataclass(frozen=True)
class TrackingRun:
    """A simulated constant-velocity track with its measurement model."""

    model: KalmanModel
    times: np.ndarray
    true_positions: np.ndarray


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


def tracking_information(
    run: TrackingRun,
    target: EntityId | None = None,
    sensor: EntityId | None = None,
) -> Information:
    """Package a tracking run as an information: true positions at sample
    instants as states, raw measurements on the sensor as reflections.
    Raises NumericalSingularityError when a time, position or
    measurement is not finite, since it has no exact rational value."""
    for what, values in (
        ("time", run.times),
        ("position", run.true_positions),
        ("measurement", run.model.zs),
    ):
        if not np.isfinite(values).all():
            raise NumericalSingularityError(f"tracking run has a non-finite {what}")
    target = target or objective("target")
    sensor = sensor or objective("sensor")
    pairs = []
    for t, pos, z in zip(run.times, run.true_positions, run.model.zs[:, 0]):
        at = TimeSet.point(Fraction(float(t)))
        s = Element(frozenset([target]), at, Value.scalar(Fraction(float(pos))))
        r = Element(frozenset([sensor]), at, Value.scalar(Fraction(float(z))))
        pairs.append((s, r))
    return Information.from_pairs("tracking", pairs)


def kalman_reflection(run: TrackingRun, info: Information) -> dict:
    """Reflection map estimating each state from the filtered position.

    The returned dict sends every reflection of ``info`` (one per step,
    in time order) to a state element carrying the filter's position
    estimate for that step; feed it to ``measures.distortion``.
    """
    result = kalman_filter(run.model)
    estimates = result.states[:, 0]
    out = {}
    for (s, r), est in zip(info.mapping, estimates):
        out[r] = Element(s.entities, s.at, Value.scalar(Fraction(float(est))))
    return out


def measurement_reflection(info: Information) -> dict:
    """Reflection map that reads each measurement as the estimate
    (identity decode); the baseline the filter has to beat."""
    out = {}
    for s, r in info.mapping:
        out[r] = Element(s.entities, s.at, r.value)
    return out
