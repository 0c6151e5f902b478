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


def _rel_mismatch(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def verify_asymptotes(
    design: AdrcDesign,
    params: PidParams,
    low_omega: float = 1e-6,
    high_omega: float = 1e6,
) -> tuple[float, float]:
    """Relative mismatches (low, high) of the reference channels of ADRC and
    the equivalent controller at both frequency extremes: s*C_r vs s*K_ry near
    DC (the integral gain), C_r vs K_ry at high frequency (b*kp).
    """
    c_r, _ = extract_cr_cy(build_adrc(design))
    k_ry = params.reference_tf()
    s_lo = 1j * low_omega
    s_hi = 1j * high_omega
    return (
        _rel_mismatch(s_lo * c_r(s_lo), s_lo * k_ry(s_lo)),
        _rel_mismatch(c_r(s_hi), k_ry(s_hi)),
    )


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
