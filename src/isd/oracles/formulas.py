"""Closed-form scope, granularity, coverage, and duration oracles.

Radar detection range bounds the scope an active sensor can reach;
the diffraction limit bounds how fine an optical system can resolve;
pairwise-connected network value bounds what full scope times full
coverage can deliver; mean time between failures is the average width
of observed up-time segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import UnboundedSegmentError
from ..timeset import Rational, TimeSet, as_fraction, exact_sum


@dataclass(frozen=True)
class RadarParams:
    """Transmit power (W), transmit gain, effective aperture (m^2),
    target cross-section (m^2), and minimum detectable power (W)."""

    transmit_power: float
    transmit_gain: float
    effective_aperture: float
    cross_section: float
    min_detectable_power: float

    def __post_init__(self):
        for name in (
            "transmit_power",
            "transmit_gain",
            "effective_aperture",
            "cross_section",
            "min_detectable_power",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def radar_max_range(params: RadarParams) -> float:
    """Fourth root of Pt * Gt * Ae * sigma / ((4 pi)^2 * Smin).

    Scaling sanity lives in the quartic: multiplying the cross-section by
    16 doubles the range.
    """
    r4 = (
        params.transmit_power
        * params.transmit_gain
        * params.effective_aperture
        * params.cross_section
    ) / ((4.0 * math.pi) ** 2 * params.min_detectable_power)
    return math.sqrt(math.sqrt(r4))


def rayleigh_min_angle(wavelength: Fraction | Rational, aperture: Fraction | Rational) -> Fraction:
    """Diffraction-limited angular resolution: wavelength over aperture,
    exact in the rationals.  Smaller is finer granularity."""
    wavelength = as_fraction(wavelength)
    aperture = as_fraction(aperture)
    if wavelength <= 0 or aperture <= 0:
        raise ValueError("wavelength and aperture must be positive")
    return wavelength / aperture


def metcalfe_value(n: int) -> int:
    """Value of an n-node fully connectable network: n * n, which equals
    the widest scope times the widest coverage such a network supports."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    return n * n


def network_info_bounds(n: int) -> tuple[int, int]:
    """(max scope, max coverage) of an n-node network: each node can be
    described and each node can be reached, so both bounds are n."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    return (n, n)


def mtbf_mean_duration(segments: Sequence[TimeSet]) -> Fraction:
    """Mean hull width over a sequence of up-time segments.  Each segment
    must be bounded: there is no mean over an interval still running."""
    if not segments:
        raise ValueError("need at least one segment")
    for seg in segments:
        if seg.is_unbounded:
            raise UnboundedSegmentError(f"segment {seg} has no finite width")
    return exact_sum([seg.sup - seg.inf for seg in segments]) / len(segments)
