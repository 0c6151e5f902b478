"""Equivalent set-point-weighted, measurement-filtered PI(D) controllers.

The conversion is exact in the measurement channel: the filtered PI(D)
feedback transfer function matches the ADRC controller's C_y coefficient for
coefficient.  The reference channel uses the set-point weight b instead of
the exact (filtered) feedforward, which leaves a small gap around crossover;
``reference_channel_gap`` quantifies it and ``verify_asymptotes`` checks that
both ends of the frequency axis agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adrc import AdrcDesign, TwoInputController, build_adrc, extract_cr_cy
from .lti import FrequencyResponseTable, RationalTransferFunction, StateSpaceModel


@dataclass(frozen=True)
class PidParams:
    """Filtered PI(D) with set-point weight b; kd = 0 selects the PI+F form.

    PI+F filters the measurement with 1/(Tf s + 1).  PID+F filters it with
    1/(Tf^2 s^2 + 2 d Tf s + 1), damping d, and its derivative term acts on
    the filtered measurement only; the reference never enters it.  The
    field order matches ``--compare-pid kp,ki,kd,Tf,b``; without a given
    damping the second-order filter is critically damped.  All values must
    be finite, and Tf and d positive.
    """

    kp: float
    ki: float
    kd: float
    Tf: float
    b: float
    d: float = 1.0

    def __post_init__(self):
        for name, value in (("kp", self.kp), ("ki", self.ki), ("kd", self.kd), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, value in (("Tf", self.Tf), ("d", self.d)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def feedback_tf(self) -> RationalTransferFunction:
        """(kp + ki/s [+ kd s]) / filter, the measurement channel without sign."""
        if self.kd == 0.0:
            return RationalTransferFunction.from_coeffs((self.ki, self.kp), (0.0, 1.0, self.Tf)).canonicalized()
        return RationalTransferFunction.from_coeffs(
            (self.ki, self.kp, self.kd),
            (0.0, 1.0, 2.0 * self.d * self.Tf, self.Tf**2),
        ).canonicalized()

    def reference_tf(self) -> RationalTransferFunction:
        """b*kp + ki/s, the set-point-weighted unfiltered reference channel."""
        return RationalTransferFunction.from_coeffs((self.ki, self.b * self.kp), (0.0, 1.0))


def pif_from_adrc(design: AdrcDesign) -> PidParams:
    """Exact PI+F match of the first-order design's measurement channel."""
    T_s, g, b0 = design.T_s, design.g, design.b0
    kp = (4.0 * g**2 + 8.0 * g) / (b0 * T_s * (2.0 * g + 1.0))
    ki = 16.0 * g**2 / (b0 * T_s**2 * (2.0 * g + 1.0))
    Tf = T_s / (8.0 * g + 4.0)
    b = design.K_P / (b0 * kp)
    return PidParams(kp=kp, ki=ki, kd=0.0, Tf=Tf, b=b)


def pidf_from_adrc(design: AdrcDesign) -> PidParams:
    """Exact PID+F match of the second-order design's measurement channel."""
    T_s, g, b0 = design.T_s, design.g, design.b0
    q = 3.0 * g**2 + 6.0 * g + 1.0
    kp = (72.0 * g**3 + 108.0 * g**2) / (b0 * T_s**2 * q)
    ki = 216.0 * g**3 / (b0 * T_s**3 * q)
    kd = (6.0 * g**3 + 36.0 * g**2 + 18.0 * g) / (b0 * T_s * q)
    Tf = T_s / (6.0 * math.sqrt(q))
    d = (3.0 * g + 2.0) / (2.0 * math.sqrt(q))
    b = 36.0 / (b0 * T_s**2 * kp)
    return PidParams(kp=kp, ki=ki, kd=kd, Tf=Tf, b=b, d=d)


def equivalent_params(design: AdrcDesign) -> PidParams:
    """PI+F parameters of a first-order design, PID+F of a second-order one."""
    return pif_from_adrc(design) if design.order == 1 else pidf_from_adrc(design)


def build_pif_controller(p: PidParams) -> TwoInputController:
    """2-state realization; x2 carries the filter, x1 the integral.

    Channels: y -> u equals -(kp + ki/s)/(Tf s + 1) and r -> u equals
    b*kp + ki/s.
    """
    A = np.array([[0.0, -p.ki / p.Tf], [0.0, -1.0 / p.Tf]])
    B = np.array([[p.ki, 0.0], [0.0, 1.0]])
    C = np.array([[1.0, -p.kp / p.Tf]])
    D = np.array([[p.b * p.kp, 0.0]])
    return TwoInputController(StateSpaceModel(A, B, C, D, ("r", "y"), ("u",)))


def build_pidf_controller(p: PidParams) -> TwoInputController:
    """3-state realization with state [-y_f, integral of (r - y_f), -dy_f/dt].

    Channels: y -> u equals -(kp + ki/s + kd s)/(Tf^2 s^2 + 2 d Tf s + 1)
    and r -> u equals b*kp + ki/s.
    """
    A = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [-1.0 / p.Tf**2, 0.0, -2.0 * p.d / p.Tf],
        ]
    )
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0 / p.Tf**2]])
    C = np.array([[p.kp, p.ki, p.kd]])
    D = np.array([[p.b * p.kp, 0.0]])
    return TwoInputController(StateSpaceModel(A, B, C, D, ("r", "y"), ("u",)))


def build_equivalent_controller(p: PidParams) -> TwoInputController:
    """PI+F realization when kd = 0, PID+F realization otherwise."""
    return build_pif_controller(p) if p.kd == 0.0 else build_pidf_controller(p)


@dataclass(frozen=True)
class AsymptoteCheck:
    name: str
    adrc_value: complex
    equivalent_value: complex
    rel_mismatch: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rel_mismatch < self.tol


@dataclass(frozen=True)
class AsymptoteReport:
    checks: tuple[AsymptoteCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel_mismatch(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def verify_asymptotes(
    design: AdrcDesign,
    params: PidParams,
    low_omega: float = 1e-6,
    high_omega: float = 1e6,
    tol: float = 1e-4,
) -> AsymptoteReport:
    """Compare reference channels of ADRC and equivalent controller at both
    frequency extremes: s*C_r vs s*K_ry near DC, C_r vs K_ry at high frequency.
    """
    c_r, _ = extract_cr_cy(build_adrc(design))
    k_ry = params.reference_tf()
    s_lo = 1j * low_omega
    s_hi = 1j * high_omega
    low_pair = (s_lo * c_r(s_lo), s_lo * k_ry(s_lo))
    high_pair = (c_r(s_hi), k_ry(s_hi))
    checks = (
        AsymptoteCheck("low_frequency_integral_gain", *low_pair, _rel_mismatch(*low_pair), tol),
        AsymptoteCheck("high_frequency_proportional_gain", *high_pair, _rel_mismatch(*high_pair), tol),
    )
    return AsymptoteReport(checks)


def reference_channel_gap(
    design: AdrcDesign,
    params: PidParams,
    omega: np.ndarray,
) -> tuple[float, FrequencyResponseTable]:
    """Relative gap |C_r - K_ry| / |C_r| over a grid, plus its supremum.

    This is the only place the equivalent controller deviates from ADRC; it
    vanishes at both ends of the axis and peaks near crossover.
    """
    omega = np.asarray(omega, dtype=float)
    c_r, _ = extract_cr_cy(build_adrc(design))
    k_ry = params.reference_tf()
    cr_vals = np.asarray(c_r(1j * omega), dtype=complex)
    kry_vals = np.asarray(k_ry(1j * omega), dtype=complex)
    gap = np.abs(cr_vals - kry_vals) / np.abs(cr_vals)
    table = FrequencyResponseTable(
        omega,
        {"C_r": cr_vals, "K_ry": kry_vals, "rel_gap": gap.astype(complex)},
    )
    return float(gap.max()), table
