"""Closed-loop assembly and the experiment suite.

Builds the standard feedback interconnection (reference, plant-input
disturbance, measurement noise), the gang-of-four/seven sensitivity set,
and plant-parameter step-response sweeps in which the controllers are
deliberately not retuned.  The module itself is plain floats and imports
no numpy: a closed loop's rows go to ``lti``, which makes its state-space
model, and a sweep's step responses are ``lti``'s.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .adrc import TwoInputController, extract_cr_cy
from .lti import (
    Polynomial,
    RationalTransferFunction,
    StateSpaceModel,
    StepResponseTable,
    _over,
    _poly,
    _worst,
    is_stable,
    poly_residual,
    step_response,
)

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
            _check_positive(name, value)
        monic = _monic_plant(self.order, self.K, self.T, self.D)
        if monic is None:
            # name T if the plant fails even at K = D = 1, else D if it fails at K = 1
            probes = (("T", 1.0, 1.0), ("D", 1.0, self.D), ("K", self.K, self.D))
            name = next(name for name, K, D in probes if _monic_plant(self.order, K, self.T, D) is None)
            inputs = ", ".join(f"{key}={getattr(self, key)!r}" for key in ("K", "T", "D")[: self.order + 1])
            raise ValueError(
                f"plant {name}={getattr(self, name)!r} is out of range: the transfer function of {inputs} "
                "has a coefficient that is not finite or a denominator coefficient that is zero"
            )
        # kept outside the fields, so that ==, hash and repr see the inputs only
        object.__setattr__(self, "_monic", monic)

    @property
    def canonical_tf(self) -> RationalTransferFunction:
        """The transfer function over a monic denominator, as the plant's check made
        it: made once per plant and shared by the gangs and loops of that plant."""
        return self._monic


def _check_positive(name: str, value: float | None) -> None:
    """Refuse a plant T or D that is not finite and > 0."""
    if value is None or not 0 < value < math.inf:
        raise ValueError(f"plant {name} must be finite and > 0, got {value!r}")


def _plant_coeffs(order: int, K: float, T: float, D: float | None) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(num, den) of the plant as written."""
    if order == 1:
        return (K,), (1.0, T)
    return (K,), (1.0, 2.0 * D * T, T**2)


def _monic_plant(order: int, K: float, T: float, D: float | None) -> RationalTransferFunction | None:
    """The plant over the monic denominator that _over makes, or None unless its
    coefficients, as written and as made monic, are finite, and its denominator
    coefficients nonzero."""
    try:
        num, den = (tuple(map(float, c)) for c in _plant_coeffs(order, K, T, D))
    except OverflowError:  # T**2 overflowed
        return None
    if not all(den):  # a zero lead would be trimmed, not divided by
        return None
    monic = _over(_poly(list(den)))(_poly(list(num)))
    ok = all(map(math.isfinite, (*num, *den, *monic.num.coeffs, *monic.den.coeffs))) and all(monic.den.coeffs)
    return monic if ok else None


def closed_loop(plant: PlantModel, c: TwoInputController) -> StateSpaceModel:
    """Feedback interconnection with inputs [r, d_u, n] and outputs [y, u].

    The plant input is u + d_u and the controller measurement is y + n.
    Well-posed because the plant is strictly proper: its numerator is a
    constant and its denominator keeps its degree, so its block has no
    direct term.  That block is the controllable canonical realization of the
    monic plant k/a(s): the companion A_p of a, B_p = e_n and C_p = [k, 0, ...].
    Each block of the loop is filled from k, a and the rows of the controller's
    realization with the bits of its matrix expression (A_p + Dc_y B_p C_p,
    B_p C_c, B_c,y C_p, ...), in which a product with one inner term is 0.0 + x*y.
    """
    P = plant.canonical_tf
    (k,), a = P.num.coeffs, P.den.coeffs
    Ac, Bc, (Cc,), ((Dc_r, Dc_y),) = c.realization
    n_p = plant.order
    zero = 0.0 * Dc_y  # Dc_y times a zero entry of B_p C_p or C_p

    # states [x_p, x_c], inputs [r, d_u, n], outputs [y, u]; step_response refuses an entry past the float range
    # the last plant row: A_p + Dc_y B_p C_p, where B_p C_p is k at (last, 0)
    # and 0.0 elsewhere, then B_p C_c and B_p (Dc_r, 1, Dc_y)
    A = [[-a[0] + Dc_y * k, *(-x + zero for x in a[1:n_p]), *(0.0 + x for x in Cc)]]
    B = [[Dc_r, 1.0, Dc_y]]
    if n_p == 2:
        # the first plant row, where B_p is 0.0; below, the second plant column, where C_p is 0.0
        A.insert(0, [0.0 + zero, 1.0 + zero, *(0.0 + 0.0 * x for x in Cc)])
        B.insert(0, [0.0 * Dc_r, 0.0, zero])
    # the controller rows: B_c,y C_p, A_c and B_c's columns r and y
    for (b_r, b_y), row in zip(Bc, Ac):
        A.append([0.0 + b_y * k, *[0.0 + b_y * 0.0] * (n_p - 1), *row])
        B.append([b_r, 0.0, b_y])
    # C_p, then Dc_y C_p and C_c in u's row
    C = [[k, *[0.0] * (len(A) - 1)], [k * Dc_y, *[zero] * (n_p - 1), *Cc]]
    D = [[0.0, 0.0, 0.0], [Dc_r, 0.0, Dc_y]]
    return StateSpaceModel._trusted(A, B, C, D, ("r", "d_u", "n"), ("y", "u"))


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
    shared closed-loop characteristic polynomial chi = dp*dc + np*nc.  Both
    controller channels carry the same denominator dc (the controller
    characteristic polynomial), so it drops out of the prefilter
    C_r/C_y = nr/nc symbolically, and the reference-weighted set is formed
    from nr directly rather than through an explicit prefilter ratio.

    Each member is its product of the factors np, dp, dc, nc and nr over the
    monic form of chi, or of nc*chi for SF_r and PSF_r.  No root is found and
    nothing is cancelled numerically: a common root of a numerator and chi,
    such as a plant pole on a zero of C_y, stays in both.  The products and
    the two monic denominators are made once per gang.
    """
    P = plant.canonical_tf
    c_r, c_y = extract_cr_cy(c)
    (k,), dp = P.num.coeffs, P.den  # np = k, a constant
    nr, nc, dc = c_r.num, c_y.num, c_y.den  # c_r.den is dc, the same object
    dp_dc, np_nc, chi = _loop_polynomial(k, dp, c_y)
    np_dc = _times(k, dc)
    nc_chi = nc * chi
    if not all(map(math.isfinite, chi.coeffs + nc_chi.coeffs)):
        raise ValueError("the gang of seven at this plant is not representable: its closed-loop polynomial overflows")
    over_chi, over_nc_chi = _over(chi), _over(nc_chi)
    return GangOfSeven(
        S=over_chi(dp_dc),
        PS=over_chi(np_dc),
        CS=over_chi(nc * dp),
        T_cl=over_chi(np_nc),
        SF_r=over_nc_chi(dp_dc * nr),
        PSF_r=over_nc_chi(np_dc * nr),
        TF_r=over_chi(_times(k, nr)),
    )


def _loop_polynomial(k: float, dp: Polynomial, c_y: RationalTransferFunction) -> tuple[Polynomial, ...]:
    """(dp*dc, k*nc, chi) of the loop k/dp with C_y = nc/dc, where
    chi = dp*dc + k*nc is its closed-loop characteristic polynomial."""
    dp_dc, np_nc = dp * c_y.den, _times(k, c_y.num)
    return dp_dc, np_nc, dp_dc + np_nc


def _times(k: float, p: Polynomial) -> Polynomial:
    """k * p with the bits of the product Polynomial((k,)) * p.

    The convolution sums each coefficient from 0.0, so for k < 0 a zero
    coefficient of p gives +0.0, where k * 0.0 alone would give -0.0.
    """
    return _poly([0.0 + k * c for c in p.coeffs])


def s_plus_t_residual(g: GangOfSeven) -> float:
    """Coefficient residual of the identity S + T = 1.

    S and T are formed over the same monic characteristic polynomial, so
    the identity is checked on their polynomials directly: the denominators
    must match and the numerators must sum to the denominator.
    """
    S, T = g.S, g.T_cl
    return _worst((poly_residual(S.den, T.den), poly_residual(S.num + T.num, S.den)))


@dataclass(frozen=True, eq=False)
class SweepCase:
    value: float
    table: StepResponseTable
    stable: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Step responses of one controller across one swept plant parameter, one case per value."""

    parameter: str
    cases: tuple[SweepCase, ...]


def sweep_plants(plant: PlantModel, parameter: str, values) -> tuple[PlantModel, ...]:
    """One copy of ``plant`` per value of the swept parameter, "K" or "T"; no
    two values may have the same ``_case_label``."""
    if parameter not in ("K", "T"):
        raise ValueError("parameter must be 'K' or 'T'")
    plants = tuple(dataclasses.replace(plant, **{parameter: float(v)}) for v in values)
    if not plants:
        raise ValueError(f"{parameter} sweep needs at least one value")
    values = [getattr(swept, parameter) for swept in plants]
    labels = [_case_label(parameter, value) for value in values]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            pair = f"{values[labels.index(label)]!r} and {values[i]!r}"
            raise ValueError(f"{parameter} sweep values {pair} cannot be told apart: both are labelled {label}")
    return plants


# (parameter, value) -> the name of a sweep case in column labels and notes: the value to 6 significant digits
_case_label = "{}={:g}".format


def step_sweep(
    plant: PlantModel,
    parameter: str,
    values,
    controller: TwoInputController,
    t_end: float,
    n_steps: int = STEP_N_STEPS,
) -> SweepResult:
    """Unit reference steps of one controller over a plant-parameter sweep.

    The controller is not retuned per case; unstable combinations are
    simulated anyway and flagged instead of raising.  A case is stable if
    is_stable passes its chi, formed in the sweep's own time unit
    s~ = alpha*s, with alpha the power of two at or below t_end (the
    frequency scaling of Gao, ACC 2003): the roots of chi in s~ are alpha
    times those in s, with the same signs of real part, and its coefficients
    stay in the float range where those of chi in s overflow.  C_y in s~ is
    ``channels(alpha)`` of the controller.  A case whose chi in s~ leaves
    the float range cannot be judged, and is refused, as is a case whose
    step response is refused.
    """
    plants = sweep_plants(plant, parameter, values)
    alpha = math.ldexp(0.5, math.frexp(t_end)[1])
    measurement = controller.channels(alpha)[1]
    cases = []
    for swept in plants:
        table = step_response(closed_loop(swept, controller), input=0, t_end=t_end, n_steps=n_steps)
        chi = _loop_polynomial(*_time_scaled_plant(swept, alpha), measurement)[2]
        if not all(map(math.isfinite, chi.coeffs)):  # then no note can say whether the case is stable
            reason = "its closed-loop polynomial overflows in the sweep's time unit, so its stability cannot be judged"
            raise ValueError(f"the step response at this tuning is not representable: {reason}")
        cases.append(SweepCase(value=getattr(swept, parameter), table=table, stable=is_stable(chi)))
    return SweepResult(parameter=parameter, cases=tuple(cases))


def _time_scaled_plant(plant: PlantModel, alpha: float) -> tuple[float, Polynomial]:
    """(k, dp) of the monic plant in s~ = alpha*s: coefficient j of dp times
    alpha**(n - j), and k times alpha**n; inf past the float range.  alpha is a
    power of two, so each power is exact, inf or 0."""
    P = plant.canonical_tf
    powers = (alpha * alpha, alpha, 1.0)[2 - plant.order :]
    return P.num.coeffs[0] * powers[0], _poly([c * x for c, x in zip(P.den.coeffs, powers)])
