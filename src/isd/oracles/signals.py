"""Band-limited periodic signals, point sampling, and reconstruction.

The sampling-rate dichotomy: a signal with no frequency above 1/T is
recovered exactly from samples no more than T/2 apart (measured rate at
least 2/T); wider gaps alias.  Reconstruction is a least-squares harmonic
fit, and the reducibility verdict is the residual test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import InsufficientSamplesError
from ..measures import sampling_rate
from ..model import Element, Information
from ..timeset import Rational, TimeSet, as_fraction
from ..values import EntityId, Value, objective

RESIDUAL_REDUCIBLE = 1e-9


@dataclass(frozen=True)
class PeriodicSignal:
    """A finite cosine series: entries are (frequency, amplitude, phase)
    with rational frequencies.  ``period`` is the reference period T; the
    highest nonzero frequency must be exactly 1/T (a pure DC signal may
    declare any positive T)."""

    harmonics: tuple[tuple[Fraction, float, float], ...]
    period: Fraction

    def __post_init__(self):
        period = as_fraction(self.period)
        if period <= 0:
            raise ValueError("period must be positive")
        cleaned = []
        for f, a, ph in self.harmonics:
            f = as_fraction(f)
            if f < 0:
                raise ValueError("frequencies must be nonnegative")
            if a != 0:
                cleaned.append((f, float(a), float(ph)))
        nonzero = [f for f, _, _ in cleaned if f > 0]
        if nonzero and max(nonzero) != 1 / period:
            raise ValueError(
                f"highest frequency {max(nonzero)} must equal 1/period = {1 / period}"
            )
        object.__setattr__(self, "harmonics", tuple(cleaned))
        object.__setattr__(self, "period", period)

    @classmethod
    def tone(cls, period: Rational, amplitude: float = 1.0, phase: float = 0.0) -> "PeriodicSignal":
        period = as_fraction(period)
        if period <= 0:
            raise ValueError("period must be positive")
        return cls(((1 / period, amplitude, phase),), period)

    @classmethod
    def constant(cls, level: float, period: Rational = 1) -> "PeriodicSignal":
        return cls(((Fraction(0), level, 0.0),), as_fraction(period))

    def value(self, t: float) -> float:
        return sum(
            a * math.cos(2.0 * math.pi * float(f) * t + ph)
            for f, a, ph in self.harmonics
        )


def sample_signal(
    signal: PeriodicSignal,
    gap: Rational,
    span: Rational,
    start: Rational = 0,
    source: EntityId | None = None,
    sensor: EntityId | None = None,
) -> Information:
    """Sample at equal gaps from ``start`` until the span is covered.

    Produces ceil(span/gap) + 1 samples (the last one may overshoot the
    span end by less than one gap, keeping all gaps equal so the measured
    sampling rate is exactly 1/gap).  The result is an information whose
    states are the true values at isolated instants and whose reflections
    record them on the sensor.
    """
    gap = as_fraction(gap)
    span = as_fraction(span)
    start = as_fraction(start)
    if gap <= 0 or span <= 0:
        raise ValueError("gap and span must be positive")
    source = source or objective("signal-source")
    sensor = sensor or objective("sampler")
    steps = -(-span // gap)  # ceil for exact rationals
    points = [start + k * gap for k in range(int(steps) + 1)]
    pairs = []
    for t in points:
        v = Value._from_terms("scalar", signal.value(float(t)).as_integer_ratio())
        s = Element(frozenset([source]), TimeSet.point(t), v)
        r = Element(frozenset([sensor]), TimeSet.point(t), v)
        pairs.append((s, r))
    return Information.from_pairs("samples", pairs)


@dataclass(frozen=True)
class ReconstructionResult:
    """Fit outcome.  ``residual`` is measured against the reference
    signal on a dense grid when one is given (the only way to expose
    aliasing), otherwise it is the fit residual on the samples alone.
    ``reducible`` is the residual test; ``meets_rate_threshold`` is the
    independent check that the measured rate reaches 2/period."""

    dc: float
    cos_amplitude: float
    sin_amplitude: float
    fit_residual: float
    residual: float
    reducible: bool
    meets_rate_threshold: bool
    measured_rate: Fraction | None
    threshold_rate: Fraction


def _sample_points(samples: Information) -> list[tuple[float, float]]:
    out = []
    for s in samples.sorted_states():
        t = s.at.inf
        ((n, d),) = s.value.numeric_terms()
        out.append((float(t), n / d))  # float(Fraction(n, d)), with no Fraction
    return out


def reconstruct_signal(
    samples: Information,
    period: Rational,
    reference: PeriodicSignal | None = None,
    grid: int = 512,
) -> ReconstructionResult:
    """Least-squares fit of dc + cos + sin at frequency 1/period.

    With at least as many samples as unknowns the normal equations are
    solved by lstsq (rank deficiency at critical spacing is fine).  The
    residual verdict: below 1e-9 relative means the samples determine
    the signal (reducible); anything larger is flagged non-reducible.
    """
    period = as_fraction(period)
    if period <= 0:
        raise ValueError("period must be positive")
    pts = _sample_points(samples)
    if len(pts) < 3:
        raise InsufficientSamplesError(
            f"{len(pts)} samples cannot pin down 3 fit coefficients"
        )
    t = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    w = 2.0 * math.pi / float(period)
    basis = np.column_stack([np.ones_like(t), np.cos(w * t), np.sin(w * t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    fitted = basis @ coef
    scale = max(float(np.linalg.norm(y)), 1e-30)
    fit_residual = float(np.linalg.norm(y - fitted)) / scale

    residual = fit_residual
    if reference is not None:
        lo, hi = float(t[0]), float(t[-1])
        dense = np.linspace(lo, hi, grid)
        truth = np.array([reference.value(x) for x in dense])
        guess = coef[0] + coef[1] * np.cos(w * dense) + coef[2] * np.sin(w * dense)
        scale = max(float(np.linalg.norm(truth)), 1e-30)
        residual = float(np.linalg.norm(truth - guess)) / scale

    rate = sampling_rate(samples)
    threshold = 2 / period
    meets = rate.is_infinite or rate.value >= threshold
    return ReconstructionResult(
        dc=float(coef[0]),
        cos_amplitude=float(coef[1]),
        sin_amplitude=float(coef[2]),
        fit_residual=fit_residual,
        residual=residual,
        reducible=residual < RESIDUAL_REDUCIBLE,
        meets_rate_threshold=meets,
        measured_rate=None if rate.is_infinite else rate.value,
        threshold_rate=threshold,
    )
