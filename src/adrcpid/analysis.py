"""Closed-loop assembly and the experiment suite.

Builds the standard feedback interconnection (reference, plant-input
disturbance, measurement noise), the gang-of-four/seven sensitivity set,
controller Bode data, and plant-parameter step-response sweeps in which the
controllers are deliberately not retuned.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .adrc import TwoInputController, extract_cr_cy
from .lti import (
    AlgebraicLoopError,
    FrequencyResponseTable,
    Polynomial,
    RationalTransferFunction,
    StateSpaceModel,
    StepResponseTable,
    has_close_pair,
    is_stable,
    poly_residual,
    step_response,
    tf_minreal,
    tf_to_ss,
)

GANG_MINREAL_TOL = 1e-8
# The roots of a product, computed from its expanded coefficients, sit off
# those of its factors by up to 2.3e-4 of their size where a factor has a
# root cluster (largest seen over 13,000 points of the aim-3 range).  So a
# gang member goes through tf_minreal on its product whenever a zero-pole
# pair of its factors lies within GANG_MINREAL_TOL plus this share of the
# larger root, not only within GANG_MINREAL_TOL.
GANG_ROOT_MARGIN = 1e-3
# Step experiments: long enough for integral action to flatten the tail,
# fine enough (h = 0.0025 T_s) to resolve the measurement-filter dynamics.
STEP_HORIZON_FACTOR = 10.0
STEP_N_STEPS = 4000


@dataclass(frozen=True)
class PlantModel:
    """First- or second-order lag: K/(T s + 1) or K/(T^2 s^2 + 2 D T s + 1).

    K must be finite, T finite and positive; a second-order plant needs a
    finite, positive damping D.
    """

    order: int
    K: float
    T: float
    D: float | None = None

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"plant order must be 1 or 2, got {self.order!r}")
        if not math.isfinite(self.K):
            raise ValueError(f"plant K must be finite, got {self.K!r}")
        for name, value in (("T", self.T), ("D", self.D))[: self.order]:
            if value is None or not 0 < value < math.inf:
                raise ValueError(f"plant {name} must be finite and > 0, got {value!r}")

    @property
    def tf(self) -> RationalTransferFunction:
        if self.order == 1:
            return RationalTransferFunction.from_coeffs((self.K,), (1.0, self.T))
        return RationalTransferFunction.from_coeffs(
            (self.K,), (1.0, 2.0 * self.D * self.T, self.T**2)
        )

    def to_ss(self) -> StateSpaceModel:
        return tf_to_ss(self.tf)


def closed_loop(plant: PlantModel, c: TwoInputController) -> StateSpaceModel:
    """Feedback interconnection with inputs [r, d_u, n] and outputs [y, u].

    The plant input is u + d_u and the controller measurement is y + n.
    Well-posed because the plant has no direct feedthrough; a plant with
    D != 0 is rejected rather than solved as an implicit loop.
    """
    p = plant.to_ss()
    if np.any(p.D != 0.0):
        raise AlgebraicLoopError("plant with direct feedthrough closes an algebraic loop")
    cs = c.ss
    Ap, Bp, Cp = p.A, p.B, p.C
    Ac, Bc, Cc, Dc = cs.A, cs.B, cs.C, cs.D
    n_p, n_c = p.n_states, cs.n_states
    Bc_r, Bc_y = Bc[:, :1], Bc[:, 1:]
    Dc_r, Dc_y = float(Dc[0, 0]), float(Dc[0, 1])

    A = np.block(
        [
            [Ap + Dc_y * (Bp @ Cp), Bp @ Cc],
            [Bc_y @ Cp, Ac],
        ]
    )
    B = np.block(
        [
            [Dc_r * Bp, Bp, Dc_y * Bp],
            [Bc_r, np.zeros((n_c, 1)), Bc_y],
        ]
    )
    C = np.block(
        [
            [Cp, np.zeros((1, n_c))],
            [Dc_y * Cp, Cc],
        ]
    )
    D = np.array([[0.0, 0.0, 0.0], [Dc_r, 0.0, Dc_y]])
    return StateSpaceModel(A, B, C, D, ("r", "d_u", "n"), ("y", "u"))


@dataclass(frozen=True, eq=False)
class GangOfSeven:
    """Feedback-only sensitivity set plus the reference-weighted variants."""

    S: RationalTransferFunction
    PS: RationalTransferFunction
    CS: RationalTransferFunction
    T_cl: RationalTransferFunction
    SF_r: RationalTransferFunction
    PSF_r: RationalTransferFunction
    TF_r: RationalTransferFunction

    def named(self) -> dict[str, RationalTransferFunction]:
        return {
            "S": self.S,
            "PS": self.PS,
            "CS": self.CS,
            "T": self.T_cl,
            "SF_r": self.SF_r,
            "PSF_r": self.PSF_r,
            "TF_r": self.TF_r,
        }


def gang_of_seven(plant: PlantModel, c: TwoInputController) -> GangOfSeven:
    """Sensitivity set for the loop P*C_y, reference variants from C_r.

    All functions are assembled by explicit polynomial algebra over the
    shared closed-loop characteristic polynomial.  Both controller channels
    carry the same denominator (the controller characteristic polynomial),
    which removes every common factor symbolically instead of relying on
    numeric pole-zero cancellation; the reference-weighted set is formed
    from C_r directly rather than through an explicit prefilter ratio.

    Each member is minreal(num/den) at GANG_MINREAL_TOL.  The roots of a
    product are those of its factors, so the cancellation test runs on the
    roots of dp, dc, nc, nr and chi, each found once.  Only a member with a
    zero-pole pair within the tolerance plus GANG_ROOT_MARGIN, or whose
    product lost degree to trimming, goes through tf_minreal on the expanded
    product; every other member has nothing to cancel.
    """
    P = plant.tf.canonicalized()
    c_r, c_y = extract_cr_cy(c)
    np_, dp = P.num, P.den
    nr, nc, dc = c_r.num, c_y.num, c_y.den
    if poly_residual(c_r.den, dc) > 1e-12:
        raise ValueError("controller channels do not share a denominator")
    dp_dc, np_dc, np_nc = dp * dc, np_ * dc, np_ * nc
    chi = dp_dc + np_nc  # closed-loop characteristic polynomial

    def mr(num: Polynomial, den: Polynomial, zero_factors, pole_factors) -> RationalTransferFunction:
        tf = RationalTransferFunction(num, den)
        if (
            num.is_zero
            or num.degree != sum(f.degree for f in zero_factors)
            or den.degree != sum(f.degree for f in pole_factors)
            or has_close_pair(
                np.concatenate([f.roots() for f in zero_factors]),
                np.concatenate([f.roots() for f in pole_factors]),
                GANG_MINREAL_TOL,
                GANG_ROOT_MARGIN,
            )
        ):
            return tf_minreal(tf, GANG_MINREAL_TOL)
        return tf.canonicalized()

    return GangOfSeven(
        S=mr(dp_dc, chi, (dp, dc), (chi,)),
        PS=mr(np_dc, chi, (np_, dc), (chi,)),
        CS=mr(nc * dp, chi, (nc, dp), (chi,)),
        T_cl=mr(np_nc, chi, (np_, nc), (chi,)),
        SF_r=mr(dp_dc * nr, nc * chi, (dp, dc, nr), (nc, chi)),
        PSF_r=mr(np_dc * nr, nc * chi, (np_, dc, nr), (nc, chi)),
        TF_r=mr(np_ * nr, chi, (np_, nr), (chi,)),
    )


def s_plus_t_residual(g: GangOfSeven) -> float:
    """Coefficient residual of the identity S + T = 1.

    S and T share the closed-loop characteristic polynomial, so the identity
    is checked after common-denominator reduction: the denominators must
    match and the numerators must sum to the denominator.  (Cross-multiplied
    addition would square the common roots and defeat root-based
    cancellation.)
    """
    S = g.S.canonicalized()
    T = g.T_cl.canonicalized()
    return max(
        poly_residual(S.den, T.den),
        poly_residual(S.num + T.num, S.den),
    )


@dataclass(frozen=True, eq=False)
class SweepCase:
    value: float
    controller: str
    table: StepResponseTable
    stable: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Step responses across one swept plant parameter, per controller."""

    parameter: str
    values: tuple[float, ...]
    controllers: tuple[str, ...]
    cases: tuple[SweepCase, ...]

    def case(self, value: float, controller: str) -> SweepCase:
        for c in self.cases:
            if c.value == value and c.controller == controller:
                return c
        raise KeyError(f"no sweep case for {self.parameter}={value}, {controller!r}")


def sweep_plants(plant: PlantModel, parameter: str, values) -> tuple[PlantModel, ...]:
    """One copy of ``plant`` per value of the swept parameter, "K" or "T"."""
    if parameter not in ("K", "T"):
        raise ValueError("parameter must be 'K' or 'T'")
    plants = tuple(dataclasses.replace(plant, **{parameter: float(v)}) for v in values)
    if not plants:
        raise ValueError(f"{parameter} sweep needs at least one value")
    return plants


def step_sweep(
    plant: PlantModel,
    parameter: str,
    values,
    controllers: Mapping[str, TwoInputController],
    t_end: float,
    n_steps: int = STEP_N_STEPS,
) -> SweepResult:
    """Unit reference steps over a plant-parameter sweep.

    Controllers are not retuned per case; unstable combinations are
    simulated anyway and flagged instead of raising.
    """
    plants = sweep_plants(plant, parameter, values)
    if not controllers:
        raise ValueError("need at least one controller")
    values = tuple(getattr(swept, parameter) for swept in plants)
    cases = []
    for v, swept in zip(values, plants):
        for name, ctrl in controllers.items():
            loop = closed_loop(swept, ctrl)
            table = step_response(loop, input=0, t_end=t_end, n_steps=n_steps)
            cases.append(SweepCase(value=v, controller=name, table=table, stable=is_stable(loop)))
    return SweepResult(
        parameter=parameter,
        values=values,
        controllers=tuple(controllers),
        cases=tuple(cases),
    )


def bode_set(tfs: Mapping[str, RationalTransferFunction], omega) -> FrequencyResponseTable:
    """Joint frequency-response table of named transfer functions."""
    omega = np.asarray(omega, dtype=float)
    cols = {name: np.asarray(tf(1j * omega), dtype=complex) for name, tf in tfs.items()}
    return FrequencyResponseTable(omega, cols)


@dataclass(frozen=True)
class LoopMargins:
    """Classical stability margins of a loop transfer function."""

    gain_margin: float
    phase_margin_deg: float
    gain_crossover: float | None
    phase_crossover: float | None


def _bisect(f, lo: float, hi: float, iters: int = 80) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        fm = f(mid)
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return np.sqrt(lo * hi)


def loop_margins(L: RationalTransferFunction, omega=None) -> LoopMargins:
    """Gain/phase margins located on a log grid and refined by bisection."""
    if omega is None:
        omega = np.logspace(-3, 5, 4000)
    omega = np.asarray(omega, dtype=float)
    H = np.asarray(L(1j * omega), dtype=complex)
    mag = np.abs(H)
    phase = np.degrees(np.unwrap(np.angle(H)))

    def phase_at(w: float, near: float) -> float:
        raw = np.degrees(np.angle(L(1j * w)))
        return raw + 360.0 * round((near - raw) / 360.0)

    gain_crossover = None
    phase_margin = np.inf
    sign = np.sign(mag - 1.0)
    idx = np.nonzero(np.diff(sign) != 0)[0]
    if idx.size:
        i = int(idx[-1])  # final crossing governs the margin for rolloff loops
        wc = _bisect(lambda w: abs(L(1j * w)) - 1.0, omega[i], omega[i + 1])
        gain_crossover = wc
        phase_margin = 180.0 + phase_at(wc, phase[i])

    phase_crossover = None
    gain_margin = np.inf
    sign = np.sign(phase + 180.0)
    idx = np.nonzero(np.diff(sign) != 0)[0]
    if idx.size:
        i = int(idx[0])
        target = phase[i]
        wp = _bisect(lambda w: phase_at(w, target) + 180.0, omega[i], omega[i + 1])
        phase_crossover = wp
        gain_margin = 1.0 / abs(L(1j * wp))

    return LoopMargins(
        gain_margin=float(gain_margin),
        phase_margin_deg=float(phase_margin),
        gain_crossover=gain_crossover,
        phase_crossover=phase_crossover,
    )


def max_magnitude(tf: RationalTransferFunction, omega) -> float:
    """Peak |tf(j omega)| over a grid, e.g. the sensitivity peak Ms."""
    omega = np.asarray(omega, dtype=float)
    return float(np.max(np.abs(np.asarray(tf(1j * omega)))))
