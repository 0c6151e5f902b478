"""The tuning layer: ADRC designs, their equivalent PI(D)F parameters and
the entries of both controllers' realizations, in scalar arithmetic.

A design is fixed by the plant order n (1 or 2), the desired settling time
T_s, the observer pole multiplier g, and the characteristic plant gain b0.
Its gains (``K_P``, ``K_D``, ``l1``, ``l2``, ``l3``) and its equivalent PI+F
(order 1) or PID+F (order 2) parameters, which ``equivalent_params`` returns,
come from the paper's closed forms in plain floats, so this module needs
neither numpy nor the LTI layer: ``adrcpid tune`` runs on it alone.  The
closed forms of both controller channels, ADRC's and PI(D)F's, are transfer
functions, still in plain floats, and import the LTI layer on first use;
``adrc`` and ``pid_equiv`` build the controllers that carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lti import RationalTransferFunction

# omega_cl * T_s per plant order: the settling constants of the bandwidth rule
SETTLING_CONSTANTS = {1: 4.0, 2: 6.0}

# gains, or a column of B; the rows of one matrix of a realization, and of its (A, B, C, D)
Gains = tuple[float, ...]
Rows = tuple[tuple[float, ...], ...]
Realization = tuple[Rows, Rows, Rows, Rows]


@dataclass(frozen=True)
class AdrcDesign:
    """Bandwidth-rule design for a plant of order n = 1 or 2.

    The state feedback places the n closed-loop poles at -omega_cl, with
    omega_cl = 4/T_s (n = 1) or 6/T_s (n = 2); the extended observer places
    its n + 1 poles g times faster, at -g*omega_cl.  T_s and g must be
    finite and positive, b0 finite and nonzero, of either sign, and together
    they must give gains and equivalent PI(D) parameters that are finite and
    nonzero in floating point, and realizations (``equivalent_realization``,
    and ``adrc_realization``'s reference column) whose entries are finite.
    The design keeps the values that this check computes; the gains,
    ``equivalent_params``, ``adrc_realization`` and the builders read them.
    """

    order: int
    T_s: float
    g: float
    b0: float = 1.0

    def __post_init__(self):
        if self.order not in SETTLING_CONSTANTS:
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")
        for name, value in (("T_s", self.T_s), ("g", self.g)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 < abs(self.b0) < math.inf:
            raise ValueError(f"b0 must be finite and nonzero, got {self.b0!r}")
        tuning = _tuning(self.order, self.T_s, self.g, self.b0)
        if isinstance(tuning, str):
            # name g if the tuning fails even at T_s = b0 = 1, else T_s if it fails at b0 = 1
            probes = (("g", 1.0, 1.0), ("T_s", self.T_s, 1.0), ("b0", self.T_s, self.b0))
            name = next(name for name, T_s, b0 in probes if isinstance(_tuning(self.order, T_s, self.g, b0), str))
            raise ValueError(
                f"{name}={getattr(self, name)!r} is out of range: "
                + tuning.format(f"T_s={self.T_s!r}, g={self.g!r}, b0={self.b0!r}")
            )
        # kept outside the fields, so that ==, hash and repr see the inputs only
        object.__setattr__(self, "_tuning", tuning)

    @property
    def omega_cl(self) -> float:
        return SETTLING_CONSTANTS[self.order] / self.T_s

    @property
    def K_P(self) -> float:
        return self._tuning[0][0]

    @property
    def K_D(self) -> float:
        """Derivative feedback gain; second-order designs only."""
        return self._second_order_gain("K_D", self._tuning[0])

    @property
    def l1(self) -> float:
        return self._tuning[1][0]

    @property
    def l2(self) -> float:
        return self._tuning[1][1]

    @property
    def l3(self) -> float:
        """Third observer gain; second-order designs only."""
        return self._second_order_gain("l3", self._tuning[1])

    def _second_order_gain(self, name: str, gains: Gains) -> float:
        """The last of gains, a gain that only a second-order design has."""
        if self.order != 2:
            raise AttributeError(f"a first-order design has no {name}")
        return gains[-1]


def _tuning(n: int, T_s: float, g: float, b0: float) -> tuple[Gains, Gains, PidParams, Gains] | str:
    """(feedback gains, observer gains, equivalent PidParams, ADRC's reference column) of the tuning
    of order n, or the refusal's reason, a format string for the tuning: a gain or equivalent PI(D)
    parameter is not finite and nonzero, or else an entry of the PI(D)F realization or the column is not."""
    # the closed forms themselves, not equivalent_params: checking a design is
    # not a call of that layer, and a traced run should not count it as one
    try:
        w = SETTLING_CONSTANTS[n] / T_s
        # k_i = C(n, i) w^(n-i) and l_i = C(n+1, i) (g w)^i; l1 is rounded as
        # (C(n+1, 1) g) w, as in the written-out gains 2 g K_P and 3 g omega_cl
        if n == 1:
            feedback, observer = (w,), (2.0 * g * w, (g * w) ** 2)
        else:
            feedback, observer = (w**2, 2.0 * w), (3.0 * g * w, 3.0 * (g * w) ** 2, (g * w) ** 3)
        fields = _equivalent_fields(n, T_s, g, b0)
        values = (*feedback, *observer, *(fields if n == 2 else fields[:2] + fields[3:]))  # a PI+F kd is 0.0
        in_range = all(map(math.isfinite, values)) and all(values)
    except ArithmeticError:  # a float power overflowed, or a closed form divided by zero
        in_range = False
    if not in_range:
        return "the gains or equivalent PI(D) parameters of {} are not finite and nonzero"
    try:
        p = PidParams(*fields)
    except ValueError:  # an entry of the PI(D)F realization is not finite
        return f"an entry of the {('PI+F', 'PID+F')[n - 1]} realization of {{}} is not finite"
    column = _reference_column(n, T_s, g, b0)
    if not all(map(math.isfinite, column)):  # its last entry overflows at a tiny g T_s^2, every parameter in range
        return "an entry of the ADRC realization of {} is not finite"
    return feedback, observer, p, column


def _finite(realization: Realization) -> bool:
    """Whether every entry of a realization is finite."""
    return all(map(math.isfinite, chain.from_iterable(chain.from_iterable(realization))))


def tune_first_order(T_s: float, g: float, b0: float = 1.0) -> AdrcDesign:
    return AdrcDesign(1, float(T_s), float(g), float(b0))


def tune_second_order(T_s: float, g: float, b0: float = 1.0) -> AdrcDesign:
    return AdrcDesign(2, float(T_s), float(g), float(b0))


@dataclass(frozen=True)
class PidParams:
    """Filtered PI(D) with set-point weight b; kd = 0 selects the PI+F form.

    PI+F filters the measurement with 1/(Tf s + 1).  PID+F filters it with
    1/(Tf^2 s^2 + 2 d Tf s + 1), damping d, and its derivative term acts on
    the filtered measurement only; the reference never enters it.  The
    field order matches ``--compare-pid kp,ki,kd,Tf,b``; without a given
    damping the second-order filter is critically damped.  All values must
    be finite, and Tf and d positive; with kd != 0, Tf^2 and 1/Tf^2, the
    filter's lead and an entry of its realization, must be finite and nonzero
    too, and every entry of ``equivalent_realization`` must be finite.  The
    channels at alpha = 1 are made once and kept.
    """

    kp: float
    ki: float
    kd: float
    Tf: float
    b: float
    d: float = 1.0

    def __post_init__(self):
        # one test for the values that pass, then one per field to name the first that does not
        if not (math.isfinite(self.kp + self.ki + self.kd + self.b + self.Tf + self.d) and self.Tf > 0 and self.d > 0):
            for name, value in (("kp", self.kp), ("ki", self.ki), ("kd", self.kd), ("b", self.b)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
            for name, value in (("Tf", self.Tf), ("d", self.d)):
                if not 0 < value < math.inf:
                    raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.kd != 0.0:
            try:
                square = self.Tf**2  # as the channels and the realization form it
            except OverflowError:
                square = math.inf
            if not (0.0 < square < math.inf and 1.0 / square < math.inf):
                raise ValueError(
                    f"Tf={self.Tf!r} is out of range: with kd != 0, Tf^2 and 1/Tf^2 must be finite and nonzero"
                )
        if not _finite(equivalent_realization(self)):
            form, names = ("PI+F", "kp ki Tf b") if self.kd == 0.0 else ("PID+F", "kp ki kd Tf b d")
            values = ", ".join(f"{name}={getattr(self, name)!r}" for name in names.split())
            raise ValueError(f"{values} are out of range: an entry of their {form} realization is not finite")

    def feedback_tf(self) -> RationalTransferFunction:
        """(ki + kp s [+ kd s^2]) / (s*filter), the measurement channel without sign."""
        return self.channels()[1]

    def reference_tf(self) -> RationalTransferFunction:
        """b*kp + ki/s, the set-point-weighted reference channel, as (ki + b*kp*s)*filter / (s*filter)."""
        return self.channels()[0]

    def channels(self, alpha: float = 1.0) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        """(C_r, C_y) of the realization, u = C_r r - C_y y, over one monic denominator
        s*filter; a zero kd is trimmed.  In the time unit s~ = alpha*s, alpha a power of
        two, ki is times alpha and kd and Tf over alpha, exactly or to inf or 0."""
        return self._unit_channels if alpha == 1.0 else self._channels(alpha)

    @cached_property
    def _unit_channels(self) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        return self._channels(1.0)

    def _channels(self, alpha: float) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        from .lti import _over, _poly, _tf

        ki, kp, kd, Tf = self.ki * alpha, self.kp, self.kd / alpha, self.Tf / alpha
        filter_ = [1.0, Tf] if kd == 0.0 else [1.0, 2.0 * self.d * Tf, self.Tf**2 / alpha / alpha]
        c_y = _over(_poly([0.0, *filter_]))(_poly([ki, kp, kd]))
        # (ki + b kp s) f, f the monic filter; a zero b kp is trimmed and forms no product
        c_r = _poly([ki, self.b * kp]) * _poly(c_y.den.coeffs[1:])
        return _tf(c_r, c_y.den), c_y


def _equivalent_fields(order: int, T_s: float, g: float, b0: float) -> tuple[float, ...]:
    """(kp, ki, kd, Tf, b, d) of the PI+F (order 1) or PID+F (order 2) match, unchecked."""
    if order == 1:
        kp = (4.0 * g**2 + 8.0 * g) / (b0 * T_s * (2.0 * g + 1.0))
        ki = 16.0 * g**2 / (b0 * T_s**2 * (2.0 * g + 1.0))
        Tf = T_s / (8.0 * g + 4.0)
        b = SETTLING_CONSTANTS[1] / T_s / (b0 * kp)  # K_P = omega_cl
        return kp, ki, 0.0, Tf, b, 1.0
    q = 3.0 * g**2 + 6.0 * g + 1.0
    kp = (72.0 * g**3 + 108.0 * g**2) / (b0 * T_s**2 * q)
    ki = 216.0 * g**3 / (b0 * T_s**3 * q)
    kd = (6.0 * g**3 + 36.0 * g**2 + 18.0 * g) / (b0 * T_s * q)
    Tf = T_s / (6.0 * math.sqrt(q))
    d = (3.0 * g + 2.0) / (2.0 * math.sqrt(q))
    b = 36.0 / (b0 * T_s**2 * kp)
    return kp, ki, kd, Tf, b, d


def adrc_channels(design: AdrcDesign, alpha: float = 1.0) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """(C_r, C_y) of build_adrc's controller, u = C_r r - C_y y, in closed form (Herbst, Electronics
    2013) over one monic denominator s*q.  With w = omega_cl, C_r = w^n (s + g w)^(n+1) / (b0 s q) and
      n = 1: C_y = g w^2 ((g + 2) s + g w) / (b0 s q), q = s + (2g + 1) w;
      n = 2: C_y = g w^3 ((g^2 + 6g + 3) s^2 + (2g^2 + 3g) w s + g^2 w^2) / (b0 s q),
             q = s^2 + (3g + 2) w s + (3g^2 + 6g + 1) w^2.
    Each coefficient is a polynomial in g times w^j = c^j / T_s^j (over b0 in a numerator), both
    powers by Python's float **.  In the time unit s~ = alpha*s, alpha a power of two, T_s/alpha
    replaces T_s and b0*alpha^n b0; past the float range a coefficient is inf or NaN, without a
    warning or an exception."""
    from .lti import _poly, _tf

    n, g = design.order, design.g
    if n == 1:
        r, y, q = (g**2, 2.0 * g, 1.0), (g * g, (g + 2.0) * g), (2.0 * g + 1.0,)
    else:
        r, y = (g**3, 3.0 * g**2, 3.0 * g, 1.0), (g**3, (2.0 * g + 3.0) * g * g, ((g + 6.0) * g + 3.0) * g)
        q = ((3.0 * g + 6.0) * g + 1.0, 3.0 * g + 2.0)
    top = 2 * n + 1
    w = [_ratio_power(float(SETTLING_CONSTANTS[n]), design.T_s / alpha, j) for j in range(top + 1)]
    b0 = design.b0 * (alpha if n == 1 else alpha * alpha)  # alpha**n, exact or inf or 0 for a power of two
    # c / b0 is c times a signed inf where b0 * alpha^n underflowed to a signed zero
    over_b0 = (lambda c: c / b0) if b0 else (lambda c, inf=math.copysign(math.inf, b0): c * inf)
    c_r, c_y = (_poly([over_b0(c * w[top - i]) for i, c in enumerate(cs)]) for cs in (r, y))
    den = _poly([0.0, *(c * w[n - i] for i, c in enumerate(q)), 1.0])
    return _tf(c_r, den), _tf(c_y, den)


def _ratio_power(c: float, T: float, j: int) -> float:
    """c**j / T**j for c > 0 and T >= 0, inf included: 0.0 where T**j overflows and
    inf where it underflows to 0, as the quotient of IEEE powers is."""
    try:
        T_j = T**j
    except OverflowError:
        return 0.0
    return c**j / T_j if T_j else math.inf


def equivalent_params(design: AdrcDesign) -> PidParams:
    """PI+F parameters of a first-order design, PID+F of a second-order one,
    as the design's check found them."""
    return design._tuning[2]


def equivalent_realization(p: PidParams) -> Realization:
    """(A, B, C, D) of the PI+F controller when kd = 0, of the PID+F controller otherwise.

    Inputs [r, y], output u; the r -> u channel equals b*kp + ki/s.  PI+F has
    2 states, x2 the filter and x1 the integral; its y -> u channel equals
    -(kp + ki/s)/(Tf s + 1).  PID+F has 3 states [-y_f, integral of
    (r - y_f), -dy_f/dt]; its y -> u channel equals
    -(kp + ki/s + kd s)/(Tf^2 s^2 + 2 d Tf s + 1).
    """
    if p.kd == 0.0:
        return (
            ((0.0, -p.ki / p.Tf), (0.0, -1.0 / p.Tf)),
            ((p.ki, 0.0), (0.0, 1.0)),
            ((1.0, -p.kp / p.Tf),),
            ((p.b * p.kp, 0.0),),
        )
    return (
        ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (-1.0 / p.Tf**2, 0.0, -2.0 * p.d / p.Tf)),
        ((0.0, 0.0), (1.0, 0.0), (0.0, -1.0 / p.Tf**2)),
        ((p.kp, p.ki, p.kd),),
        ((p.b * p.kp, 0.0),),
    )


def adrc_realization(design: AdrcDesign) -> Realization:
    """(A, B, C, D) of the ADRC controller: ``equivalent_realization``'s rows, the measurement path
    that the two controllers share exactly (the paper's claim), with B's r column replaced by ADRC's
    own, ``_reference_column``, which makes C_r ADRC's closed form."""
    A, B, C, D = equivalent_realization(design._tuning[2])
    return A, tuple((beta, b_y) for beta, (_, b_y) in zip(design._tuning[3], B)), C, D


def _reference_column(order: int, T_s: float, g: float, b0: float) -> Gains:
    """B's r column of ``adrc_realization`` in the states of ``equivalent_realization``, unchecked:
      n = 1: (8g / (T_s^2 b0), 1/(2g));
      n = 2: (2r / (g T_s), r/3, -12 (g + 2) r / (g T_s^2)), r = q / (g + 1)^2, q = 3g^2 + 6g + 1.
    With it in place of their r column, the PI(D)F rows have ADRC's C_r (``adrc_channels``)."""
    if order == 1:
        return 8.0 * g / (b0 * T_s**2), 0.5 / g
    r = (3.0 * g**2 + 6.0 * g + 1.0) / (g + 1.0) ** 2
    return 2.0 * r / g / T_s, r / 3.0, -12.0 * r * (g + 2.0) / g / T_s**2
