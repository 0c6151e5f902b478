"""Equivalent set-point-weighted, measurement-filtered PI(D) controllers.

The parameters (``equivalent_params``) and the entries of their realizations
come from ``design``; this module builds the realizations as controllers and
checks them against ADRC.  The conversion is exact in the measurement
channel: the filtered PI(D) feedback transfer function matches the ADRC
controller's C_y coefficient for coefficient.  The reference channel uses
the set-point weight b instead of the exact (filtered) feedforward, which
leaves a small gap around crossover; ``reference_channel_gap`` quantifies it
and ``verify_asymptotes`` measures how closely both ends of the frequency
axis agree, both from ADRC's C_r.
"""

from __future__ import annotations

from typing import Sequence

from .adrc import TwoInputController
# the parameter type and its getter are also importable from here
from .design import PidParams, equivalent_params, equivalent_realization
from .lti import RationalTransferFunction, _worst


def build_equivalent_controller(p: PidParams) -> TwoInputController:
    """PI+F controller when kd = 0, PID+F otherwise, realized by ``equivalent_realization``."""
    return TwoInputController(equivalent_realization(p), p.channels)


def _rel_mismatch(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def verify_asymptotes(c_r: RationalTransferFunction, params: PidParams) -> tuple[float, float]:
    """Relative mismatches (low, high) of the ADRC reference channel c_r and
    that of the equivalent controller at both ends of the frequency axis,
    read from the coefficients of c_r: lim s*C_r as s -> 0 is num[0]/den[1]
    against ki, and lim C_r as s -> oo is num[-1]/den[-1] against b*kp.

    A C_r without a simple pole at s = 0 has no integral gain, so its low
    mismatch is 1; a strictly proper C_r has a high limit of 0.
    """
    num, den = c_r.num.coeffs, c_r.den.coeffs
    low = _rel_mismatch(num[0] / den[1], params.ki) if den[0] == 0.0 and den[1] != 0.0 else 1.0
    high = num[-1] / den[-1] if len(num) == len(den) else 0.0
    return low, _rel_mismatch(high, params.b * params.kp)


def reference_channel_gap(
    c_r: RationalTransferFunction, params: PidParams, omega: Sequence[float]
) -> tuple[float, list[float]]:
    """Supremum of the relative gap |C_r - K_ry| / |C_r| over a grid, and the gap.

    This is the only place the equivalent controller deviates from ADRC; it
    vanishes at both ends of the axis and peaks near crossover.
    """
    points = [1j * w for w in omega]
    gap = [abs(c - k) / abs(c) for c, k in zip(c_r(points), params.reference_tf()(points))]
    return _worst(gap), gap
