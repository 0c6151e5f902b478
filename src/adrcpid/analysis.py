"""Closed-loop assembly and the experiment suite.

Builds the standard feedback interconnection (reference, plant-input
disturbance, measurement noise), the gang-of-four/seven sensitivity set,
loop margins, and plant-parameter step-response sweeps in which the
controllers are deliberately not retuned.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .adrc import TwoInputController, extract_cr_cy
from .lti import (
    Polynomial,
    RationalTransferFunction,
    StateSpaceModel,
    StepResponseTable,
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
_NO_ROOTS = np.empty(0)
# Step experiments: long enough for integral action to flatten the tail,
# fine enough (h = 0.0025 T_s) to resolve the measurement-filter dynamics.
STEP_HORIZON_FACTOR = 10.0
STEP_N_STEPS = 4000


@dataclass(frozen=True)
class PlantModel:
    """First- or second-order lag: K/(T s + 1) or K/(T^2 s^2 + 2 D T s + 1).

    K must be finite, T finite and positive; a second-order plant needs a
    finite, positive damping D.  Together they must give coefficients that
    are finite, as written and over a monic denominator, and denominator
    coefficients that are nonzero.
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
        if not _plant_representable(self.order, self.K, self.T, self.D):
            # name T if the plant fails even at K = D = 1, else D if it fails at K = 1
            probes = (("T", 1.0, 1.0), ("D", 1.0, self.D), ("K", self.K, self.D))
            name = next(name for name, K, D in probes if not _plant_representable(self.order, K, self.T, D))
            inputs = ", ".join(f"{key}={getattr(self, key)!r}" for key in ("K", "T", "D")[: self.order + 1])
            raise ValueError(
                f"plant {name}={getattr(self, name)!r} is out of range: the transfer function of {inputs} "
                "has a coefficient that is not finite or a denominator coefficient that is zero"
            )

    @cached_property
    def tf(self) -> RationalTransferFunction:
        return RationalTransferFunction.from_coeffs(*_plant_coeffs(self.order, self.K, self.T, self.D))

    @cached_property
    def canonical_tf(self) -> RationalTransferFunction:
        """tf with a monic denominator, made once per plant, so that the gangs
        of one plant share its polynomials and the roots found on them.

        Made from the raw tf: canonicalizing twice is not a no-op.
        """
        return self.tf.canonicalized()

    def to_ss(self) -> StateSpaceModel:
        return tf_to_ss(self.tf)


def _plant_coeffs(order: int, K: float, T: float, D: float | None) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(num, den) of the plant as written."""
    if order == 1:
        return (K,), (1.0, T)
    return (K,), (1.0, 2.0 * D * T, T**2)


def _plant_representable(order: int, K: float, T: float, D: float | None) -> bool:
    """True if the plant's coefficients, as written and over a monic denominator,
    are finite, and its denominator coefficients nonzero."""
    try:
        num, den = _plant_coeffs(order, K, T, D)
        inv = 1.0 / den[-1]
    except ArithmeticError:  # T**2 overflowed, or underflowed to zero
        return False
    monic = tuple(c * inv for c in den)
    return all(map(math.isfinite, (*num, *den, *monic, *(c * inv for c in num)))) and all(den + monic)


def closed_loop(plant: PlantModel, c: TwoInputController) -> StateSpaceModel:
    """Feedback interconnection with inputs [r, d_u, n] and outputs [y, u].

    The plant input is u + d_u and the controller measurement is y + n.
    Well-posed because the plant is strictly proper: its numerator is a
    constant and its denominator keeps its degree, so to_ss() has D = 0.
    """
    p = plant.to_ss()
    cs = c.ss
    Ap, Bp, Cp = p.A, p.B, p.C
    Ac, Bc, Cc, Dc = cs.A, cs.B, cs.C, cs.D
    n_p = p.n_states
    n = n_p + cs.n_states
    Dc_r, Dc_y = float(Dc[0, 0]), float(Dc[0, 1])

    # states [x_p, x_c], inputs [r, d_u, n], outputs [y, u]; step_response refuses an entry past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.empty((n, n))
        A[:n_p, :n_p] = Ap + Dc_y * (Bp @ Cp)
        A[:n_p, n_p:] = Bp @ Cc
        A[n_p:, :n_p] = Bc[:, 1:] @ Cp
        A[n_p:, n_p:] = Ac
        B = np.zeros((n, 3))
        B[:n_p] = Bp * (Dc_r, 1.0, Dc_y)
        B[n_p:, ::2] = Bc
        C = np.zeros((2, n))
        C[:, :n_p] = Cp * ((1.0,), (Dc_y,))
        C[1:, n_p:] = Cc
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
    shared closed-loop characteristic polynomial chi.  Both controller
    channels carry the same denominator (the controller characteristic
    polynomial), which removes every common factor symbolically instead of
    relying on numeric pole-zero cancellation; the reference-weighted set is
    formed from C_r directly rather than through an explicit prefilter ratio.

    Each member is minreal(num/den) at GANG_MINREAL_TOL, with num and den
    products of the factors np, dp, dc, nc, nr and chi.  The shared work is
    done once per gang: every product (nc*chi serves SF_r and PSF_r), one
    cancellation table between the roots of the zero and the pole factors,
    and the monic forms of chi and nc*chi.  Only a member with a zero-pole
    pair within the tolerance plus GANG_ROOT_MARGIN goes through tf_minreal
    on its raw product; every other member has nothing to cancel and is its
    product over the shared monic denominator, the bits tf_minreal would
    return.
    """
    P = plant.canonical_tf
    c_r, c_y = extract_cr_cy(c)
    np_, dp = P.num, P.den
    nr, nc, dc = c_r.num, c_y.num, c_y.den
    # the two channels of a state-space controller share one resolvent, so
    # their denominators are equal and the residual is not needed
    if c_r.den != dc and poly_residual(c_r.den, dc) > 1e-12:
        raise ValueError("controller channels do not share a denominator")
    dp_dc, np_dc, np_nc = dp * dc, np_ * dc, np_ * nc
    chi = dp_dc + np_nc  # closed-loop characteristic polynomial
    nc_chi = nc * chi
    if not all(map(math.isfinite, chi.coeffs + nc_chi.coeffs)):
        raise ValueError("the gang of seven at this plant is not representable: its closed-loop polynomial overflows")
    near = _near_factor_pairs((np_, dp, dc, nc, nr), (chi, nc))
    over = {id(chi): _over(chi), id(nc_chi): _over(nc_chi)}

    def member(num: Polynomial, den: Polynomial, zeros, poles) -> RationalTransferFunction:
        if num.is_zero or any((id(z), id(p)) in near for z in zeros for p in poles):
            return tf_minreal(RationalTransferFunction(num, den), GANG_MINREAL_TOL)
        return over[id(den)](num)

    # each member is num/den, with the factors of num and of den
    return GangOfSeven(
        S=member(dp_dc, chi, (dp, dc), (chi,)),
        PS=member(np_dc, chi, (np_, dc), (chi,)),
        CS=member(nc * dp, chi, (nc, dp), (chi,)),
        T_cl=member(np_nc, chi, (np_, nc), (chi,)),
        SF_r=member(dp_dc * nr, nc_chi, (dp, dc, nr), (nc, chi)),
        PSF_r=member(np_dc * nr, nc_chi, (np_, dc, nr), (nc, chi)),
        TF_r=member(np_ * nr, chi, (np_, nr), (chi,)),
    )


def _near_factor_pairs(zeros: tuple[Polynomial, ...], poles: tuple[Polynomial, ...]) -> set[tuple[int, int]]:
    """(id(z), id(p)) for each zero factor z with a root near a root of pole factor p.

    One distance matrix over all roots: a pair is near unless |z - p| minus
    GANG_ROOT_MARGIN*max(|z|, |p|) exceeds GANG_MINREAL_TOL, so a NaN
    distance is near, as in lti.has_close_pair.
    A zero factor has no roots here: a member with it in its numerator has a
    zero numerator, and one with it in its denominator is rejected by the
    RationalTransferFunction constructor, so neither reads the table.
    """
    z_roots = [_NO_ROOTS if f.is_zero else f.roots() for f in zeros]
    p_roots = [_NO_ROOTS if f.is_zero else f.roots() for f in poles]
    z = np.concatenate(z_roots)[:, None]
    p = np.concatenate(p_roots)
    dist = np.abs(z - p)
    dist -= GANG_ROOT_MARGIN * np.maximum(np.abs(z), np.abs(p))
    rows, cols = np.nonzero(~(dist > GANG_MINREAL_TOL))
    z_of = [id(f) for f, r in zip(zeros, z_roots) for _ in r]
    p_of = [id(f) for f, r in zip(poles, p_roots) for _ in r]
    return {(z_of[i], p_of[j]) for i, j in zip(rows.tolist(), cols.tolist())}


def _over(den: Polynomial):
    """num -> RationalTransferFunction(num, den).canonicalized(), den made monic once.

    The raw numerator goes in: canonicalizing twice is not a no-op.
    """
    if den.is_zero or den.leading == 1.0:  # a zero den is left to the constructor to reject
        return lambda num: RationalTransferFunction(num, den)
    inv = 1.0 / den.leading
    monic = den.scaled(inv)
    return lambda num: RationalTransferFunction(num.scaled(inv), monic)


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
