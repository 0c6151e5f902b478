"""Equivalent set-point-weighted, measurement-filtered PI(D) controllers.

The parameters and the entries of their realizations come from ``design``;
this module builds the realizations as controllers and checks them against
ADRC.  The conversion is exact in the measurement channel: the filtered PI(D)
feedback transfer function matches the ADRC controller's C_y coefficient for
coefficient.  The reference channel uses the set-point weight b instead of
the exact (filtered) feedforward, which leaves a small gap around crossover;
``reference_channel_gap`` quantifies it and ``verify_asymptotes`` measures
how closely both ends of the frequency axis agree.
"""

from __future__ import annotations

import numpy as np

from .adrc import AdrcDesign, TwoInputController, build_adrc, extract_cr_cy
# the parameter type and closed forms are also importable from here
from .design import PidParams, equivalent_params, equivalent_realization, pidf_from_adrc, pif_from_adrc
from .lti import StateSpaceModel


def build_equivalent_controller(p: PidParams) -> TwoInputController:
    """PI+F controller when kd = 0, PID+F otherwise, from ``design.equivalent_realization``."""
    A, B, C, D = equivalent_realization(p)
    return TwoInputController(StateSpaceModel(A, B, C, D, ("r", "y"), ("u",)))


def _rel_mismatch(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def verify_asymptotes(design: AdrcDesign, params: PidParams) -> tuple[float, float]:
    """Relative mismatches (low, high) of the reference channels of ADRC and
    the equivalent controller at both ends of the frequency axis, read from
    the monic coefficients of C_r: lim s*C_r as s -> 0 is num[0]/den[1]
    against ki, and lim C_r as s -> oo is num[-1]/den[-1] against b*kp.

    A C_r without its pole at s = 0 (den[0] != 0) has no integral gain, so
    its low mismatch is 1.
    """
    c_r, _ = extract_cr_cy(build_adrc(design))
    num, den = c_r.num.coeffs, c_r.den.coeffs
    low = _rel_mismatch(num[0] / den[1], params.ki) if den[0] == 0.0 else 1.0
    return low, _rel_mismatch(num[-1] / den[-1], params.b * params.kp)


def reference_channel_gap(
    design: AdrcDesign,
    params: PidParams,
    omega: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Supremum of the relative gap |C_r - K_ry| / |C_r| over a grid, and the gap.

    This is the only place the equivalent controller deviates from ADRC; it
    vanishes at both ends of the axis and peaks near crossover.
    """
    omega = np.asarray(omega, dtype=float)
    c_r, _ = extract_cr_cy(build_adrc(design))
    k_ry = params.reference_tf()
    cr_vals = np.asarray(c_r(1j * omega), dtype=complex)
    kry_vals = np.asarray(k_ry(1j * omega), dtype=complex)
    gap = np.abs(cr_vals - kry_vals) / np.abs(cr_vals)
    return float(gap.max()), gap
