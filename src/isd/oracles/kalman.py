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
from math import isfinite, lcm
from operator import lt

import numpy as np

from ..errors import MeasureInputError, NumericalSingularityError
from ..model import Element, Information
from ..timeset import TimeSet
from ..values import EntityId, Value, objective

MAX_DIM = 8
CONDITION_LIMIT = 1e12
# every array's shape over the dimensions n (state), p (measurement),
# m (control) and k (steps), in the order that first names each of them
_SHAPES = {
    "A": "nn", "H": "pn", "B": "nm", "zs": "kp",
    "Q": "nn", "R": "pp", "x0": "n", "P0": "nn", "us": "km",
}


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
        Measurements, one row per step; a (k,) vector when p = 1.

    The model keeps float copies, not the caller's arrays.  An array of
    another shape, or p = 0, raises ``ValueError`` on construction.
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
        for name in _SHAPES:
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        # each dimension is read off the first array that names it
        dims = {}
        for name, spec in _SHAPES.items():
            shape = getattr(self, name).shape
            for d, size in zip(spec, shape):
                dims.setdefault(d, size)
            want = tuple(dims.get(d, d) for d in spec)
            if name == "zs" and want[1:] == (1,) and shape == want[:1]:
                continue  # one measurement per step may come as a flat vector
            if shape != want:
                raise ValueError(f"{name} has shape {shape}; it should be {want}".replace("'", ""))
        if dims["p"] == 0:
            raise ValueError("H has no rows: the model needs a measurement")
        if dims["n"] > MAX_DIM or dims["p"] > MAX_DIM:
            raise ValueError(f"state/measurement dimension above {MAX_DIM}")


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

    Each product is one numpy call on the operands of the reference in
    ``tests/reference_kalman.py``, whose arrays these equal byte for byte.
    It goes through ``np.dot``, the BLAS routine ``@`` reaches at less
    call overhead, or through ``@`` for a 1-dimensional state, since
    ``np.dot`` multiplies two size-1 operands as scalars and keeps a -0.0
    that ``@`` makes +0.0.  A 1x1 innovation covariance is inverted as
    the reciprocal of its entry, which is LAPACK's inverse.  With no
    steps each array has shape ``(0,)``.

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
    At, Ht = A.T, H.T
    n, p, steps = A.shape[0], H.shape[0], len(model.zs)
    dot = np.matmul if n == 1 else np.dot
    eye = np.eye(n)
    x, P = model.x0, model.P0
    if not steps:
        return KalmanResult(*(np.array([]) for _ in range(5)))
    pred_x, xs = np.empty((steps, n)), np.empty((steps, n))
    pred_P, Ps = np.empty((steps, n, n)), np.empty((steps, n, n))
    gains = np.empty((steps, n, p))
    for k, (u, z) in enumerate(zip(model.us, model.zs)):
        x_pred = dot(A, x) + dot(B, u)
        P_pred = dot(dot(A, P), At) + Q
        S = dot(dot(H, P_pred), Ht) + R
        if p == 1:
            s = S.item()
            if not isfinite(s):
                raise NumericalSingularityError("innovation covariance is not finite")
            if s == 0:
                raise NumericalSingularityError(
                    "innovation covariance too ill-conditioned to invert"
                )
            # a Python division: a subnormal s overflows to inf without a warning
            S[0, 0] = 1.0 / s
            S_inv = S
        else:
            if not np.isfinite(S).all():
                raise NumericalSingularityError("innovation covariance is not finite")
            if np.linalg.cond(S) > CONDITION_LIMIT:
                raise NumericalSingularityError(
                    "innovation covariance too ill-conditioned to invert"
                )
            S_inv = np.linalg.inv(S)
        G = dot(dot(P_pred, Ht), S_inv)
        x = x_pred + dot(G, z - dot(H, x_pred))
        P = dot(eye - dot(G, H), P_pred)
        pred_x[k], pred_P[k], gains[k], xs[k], Ps[k] = x_pred, P_pred, G, x, P
    return KalmanResult(pred_x, pred_P, gains, xs, Ps)


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
    # one draw of the interleaved stream: two state draws, then one
    # measurement draw, per step
    noise = rng.standard_normal((steps, 3))
    for k in range(steps):
        x = np.dot(A, x) + np.dot(chol, noise[k, :2])
        truth[k] = x
    zs[:, 0] = truth[:, 0] + noise[:, 2] * np.sqrt(measurement_noise)
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


def _steps(run: TrackingRun) -> int:
    """The run's number of steps.  Raises MeasureInputError when its
    times, true positions and measurements differ in number, since the
    steps are their rows taken together."""
    counts = len(run.times), len(run.true_positions), len(run.model.zs)
    if len(set(counts)) > 1:
        raise MeasureInputError(
            "tracking run has {} times, {} true positions and {} measurements".format(*counts)
        )
    return counts[0]


def _increasing(times: list[float]) -> bool:
    """True when the float ``times`` strictly increase.  Float comparison
    is exact, so their exact rational values increase too."""
    return all(map(lt, times, times[1:]))


def tracking_information(
    run: TrackingRun,
    target: EntityId | None = None,
    sensor: EntityId | None = None,
) -> Information:
    """Package a tracking run as an information: true positions at sample
    instants as states, raw measurements on the sensor as reflections.
    Raises MeasureInputError when the run's columns differ in length, and
    NumericalSingularityError when a time, position or measurement is not
    finite, since it has no exact rational value.

    When the times strictly increase, as every simulated run's do, the
    information is built as it stands: one state per time, so the step
    order is the canonical mapping order, and occurrence and reflection
    time are the one set of the points, whose keys over the least common
    denominator are in normal form.  Any other run, including one with no
    steps, goes through ``Information.from_pairs``."""
    _steps(run)
    for what, values in (
        ("time", run.times),
        ("position", run.true_positions),
        ("measurement", run.model.zs),
    ):
        if not np.isfinite(values).all():
            raise NumericalSingularityError(f"tracking run has a non-finite {what}")
    target = target or objective("target")
    sensor = sensor or objective("sensor")
    columns = (run.times, run.true_positions, run.model.zs[:, 0])
    times, positions, measured = (np.asarray(c, dtype=float).tolist() for c in columns)
    subject, part = frozenset([target]), frozenset([sensor])
    terms = [t.as_integer_ratio() for t in times]  # in lowest terms, d > 0
    pairs = []
    for (n, d), pos, z in zip(terms, positions, measured):
        at = TimeSet._from_keys(d, (n,), (n,), None)
        s = Element._from_set(subject, at, Value._from_terms("scalar", pos.as_integer_ratio()))
        r = Element._from_set(part, at, Value._from_terms("scalar", z.as_integer_ratio()))
        pairs.append((s, r))
    if not pairs or not _increasing(times):
        return Information.from_pairs("tracking", pairs)
    den = lcm(*[d for _, d in terms])
    keys = tuple([n * (den // d) for n, d in terms])
    when = TimeSet._from_keys(den, keys, keys, None)
    return Information._presorted(
        "tracking",
        subject,
        when,
        frozenset([s for s, _ in pairs]),
        part,
        when,
        frozenset([r for _, r in pairs]),
        tuple(pairs),
        valid=sensor.is_objective,
    )


def kalman_reflection(run: TrackingRun, info: Information) -> dict:
    """Reflection map estimating each state from the filtered position.

    The returned dict sends every reflection of ``info`` (one per step,
    in time order) to a state element carrying the filter's position
    estimate for that step; feed it to ``measures.distortion``.  The
    mapping's pairs are matched with the steps by position, so a run
    whose columns differ in length or whose times do not strictly
    increase, or an information with another number of pairs than the run
    has steps, raises MeasureInputError.
    """
    steps = _steps(run)
    if len(info.mapping) != steps:
        raise MeasureInputError(
            f"information {info.name!r} has {len(info.mapping)} pairs "
            f"but the tracking run has {steps} steps"
        )
    if not _increasing(np.asarray(run.times, dtype=float).tolist()):
        raise MeasureInputError(
            "tracking run times do not strictly increase, so its steps "
            "cannot be matched with the mapping's pairs"
        )
    result = kalman_filter(run.model)
    estimates = result.states[:, 0].tolist()
    out = {}
    for (s, r), est in zip(info.mapping, estimates):
        value = Value._from_terms("scalar", est.as_integer_ratio())
        out[r] = Element._from_set(s.entities, s.at, value)
    return out


def measurement_reflection(info: Information) -> dict:
    """Reflection map that reads each measurement as the estimate
    (identity decode); the baseline the filter has to beat."""
    out = {}
    for s, r in info.mapping:
        out[r] = Element._from_set(s.entities, s.at, r.value)
    return out
