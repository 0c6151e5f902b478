"""Scalar continuous-time LTI primitives in plain Python floats.

Polynomial sums and products, rational transfer functions (evaluation,
negation, monic normalization, residuals), the Routh test and the frequency
grid.  Of the LTI layer, the bode and gang figures need this module alone.

The rest of the layer is kept apart, because each fresh process compiles what
it imports when no ``.pyc`` is written: ``rows`` holds the plain-float row
algebra (the split of a realization's rows into its transfer functions and
one step trace of a loop's rows), which only ``verify`` and ``lti`` import,
and ``lti`` the numpy half (state-space models, ``step_response``,
``tf_minreal`` and the step sweeps), which only the step figures and
``sweep`` load.

Coefficient convention used everywhere in this package: polynomials store
ascending powers of s, i.e. ``coeffs[k]`` multiplies ``s**k``.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Iterable, Sequence

from .value import Value

# Transfer-function comparison uses the REL/ABS pair below after monic
# normalization of the denominator.
COEFF_REL_TOL = 1e-9
COEFF_ABS_TOL = 1e-12

# The refusal of a controller's channels, split or closed-form, past the float range.
CHANNELS_OVERFLOW = "the controller transfer function at this tuning is not representable: its coefficients overflow"


def _trimmed(c: list[float]) -> tuple[float, ...]:
    """A nonempty list of floats as a tuple without trailing exact zeros,
    trimmed in place; every nonzero one is kept, however small, and the zero
    polynomial is (0.0,)."""
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return (0.0,) if c == [0.0] else tuple(c)  # -0.0 too


def _poly(c: list[float]) -> "Polynomial":
    """Polynomial(c) for a nonempty list of floats made inside this package,
    trimmed as the constructor trims, without the constructor's conversions."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "coeffs", tuple(c) if c[-1] != 0.0 else _trimmed(c))  # most have nothing to trim
    return p


def _tf(num: "Polynomial", den: "Polynomial") -> "RationalTransferFunction":
    """RationalTransferFunction(num, den) for a den made inside this package and
    known to be nonzero, without the constructor's check."""
    tf = object.__new__(RationalTransferFunction)
    object.__setattr__(tf, "num", num)
    object.__setattr__(tf, "den", den)
    return tf


def _horner(coeffs: Sequence[float], points: list) -> list:
    """Horner evaluation of ascending coefficients at each of a list of points, real
    or complex: one pass over the points per coefficient."""
    values = [coeffs[-1] + s * 0 for s in points]
    for c in coeffs[-2::-1]:
        values = [c + v * s for v, s in zip(values, points)]
    return values


def _at_points(f: Callable[[list], list], s):
    """f at one point, a number, or the list of f at each point of any other iterable of
    points; f maps a list of points to the list of values.  A numpy array or scalar is
    taken as its Python values, by its tolist()."""
    if hasattr(s, "tolist"):
        s = s.tolist()
    return f([s])[0] if isinstance(s, (int, float, complex)) else f(list(s))


class Polynomial(Value):
    """Real polynomial in s; ``coeffs[k]`` multiplies ``s**k``."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        # a list first: a tuple built straight from the map iterator is sized by
        # a guess and shrunk, which fills the interpreter's tuple free lists
        c = list(map(float, coeffs))
        if not c:
            raise ValueError("polynomial needs at least one coefficient")
        self.__dict__.update(coeffs=_trimmed(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def __call__(self, s):
        """The value at s by Horner's rule; at each point of s if s is not a number."""
        return _at_points(functools.partial(_horner, self.coeffs), s)

    # + adds the shorter operand into the prefix of the longer one, as
    # numpy's polyadd does.  * is the plain convolution: coefficient k sums
    # a[i] * b[k - i] from 0.0, in ascending i.
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) <= len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b) :]))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        c = [0.0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                c[k] += x * y
        return _poly(c)

    def scaled(self, factor: float) -> "Polynomial":
        return _poly([factor * c for c in self.coeffs])


class RationalTransferFunction(Value):
    """Ratio of two real polynomials in s."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")
        self.__dict__.update(num=num, den=den)

    def __call__(self, s):
        """num(s)/den(s), both by Horner in s; at each point of s if s is not a number.

        Where num(s), den(s) or their quotient leaves the float range at
        |s| > 1, the point is evaluated in z = 1/s instead, as
        z**(deg den - deg num) times the ratio of the reversed coefficients
        at z, so that the powers of s that cancel in the ratio are never
        formed.  Elsewhere the value is the plain ratio.  A quotient by zero,
        or a power of z past the float range, is NaN.
        """
        return _at_points(lambda points: _evaluate((self,), points)[0], s)

    def canonicalized(self) -> "RationalTransferFunction":
        """num/den over a monic denominator, by the rule of _over; self if den is monic already."""
        return self if self.den.leading == 1.0 else _over(self.den)(self.num)


def _evaluate(tfs: Iterable[RationalTransferFunction], points: list) -> list[list]:
    """The values of each of tfs at each of a list of points, by the rule of
    RationalTransferFunction.__call__, with each distinct denominator object
    evaluated once: the members of a gang share the monic form of their
    closed-loop polynomial, and a controller's two channels their denominator."""
    # id -> (the denominator, kept so that no other object takes its id, its values, whether all are finite)
    dens: dict[int, tuple[Polynomial, list, bool]] = {}
    values = []
    for tf in tfs:
        if id(tf.den) not in dens:
            den = _horner(tf.den.coeffs, points)
            dens[id(tf.den)] = tf.den, den, all(map(cmath.isfinite, den))
        _, den, den_finite = dens[id(tf.den)]
        num = _horner(tf.num.coeffs, points)
        ratio = [n / d if d else math.nan for n, d in zip(num, den)]
        if not (den_finite and all(map(cmath.isfinite, num + ratio))):
            _redo_in_reciprocal(tf, points, num, den, ratio)
        values.append(ratio)
    return values


def _redo_in_reciprocal(tf: RationalTransferFunction, points: list, num: list, den: list, ratio: list) -> None:
    """Replace in place each value of ratio, num/den of tf at points, that is not finite, or
    whose num or den is not, at a point |s| > 1 by its value in z = 1/s."""
    redo = [
        k
        for k, (n, d, r, s) in enumerate(zip(num, den, ratio, points))
        if not (cmath.isfinite(n) and cmath.isfinite(d) and cmath.isfinite(r)) and abs(s) > 1
    ]
    z = [1.0 / points[k] for k in redo]
    rnum, rden = _horner(tf.num.coeffs[::-1], z), _horner(tf.den.coeffs[::-1], z)
    for k, z_k, n, d in zip(redo, z, rnum, rden):
        try:
            ratio[k] = z_k ** (tf.den.degree - tf.num.degree) * n / d
        except (OverflowError, ZeroDivisionError):
            ratio[k] = math.nan


def _over(den: Polynomial) -> Callable[[Polynomial], RationalTransferFunction]:
    """num -> num/den over a monic denominator, made once and shared by every result.

    The one monic rule of this package: every coefficient is divided by the
    leading one of den, so the new lead is exactly 1.0 and canonicalizing a
    result again is a no-op.
    """
    lead = den.leading
    if lead == 0.0:  # only the zero polynomial leads with 0.0; the constructor rejects it
        return lambda num: RationalTransferFunction(num, den)
    if lead == 1.0:
        return lambda num: _tf(num, den)
    monic = _poly([c / lead for c in den.coeffs])
    return lambda num: _tf(_poly([c / lead for c in num.coeffs]), monic)


def tf_neg(a: RationalTransferFunction) -> RationalTransferFunction:
    return RationalTransferFunction(a.num.scaled(-1.0), a.den).canonicalized()


def poly_residual(a: Polynomial, b: Polynomial) -> float:
    """Largest per-coefficient relative deviation between two polynomials.

    The scale floor ABS/REL makes ``poly_residual(a, b) <= rtol`` agree with
    the atol+rtol acceptance rule, so absolute noise below the floor does not
    blow up the quotient.
    """
    n = max(len(a.coeffs), len(b.coeffs))
    pa, pb = ((*p.coeffs, *[0.0] * (n - len(p.coeffs))) for p in (a, b))
    floor = COEFF_ABS_TOL / COEFF_REL_TOL
    # a NaN coefficient makes its deviation NaN through |x - y|, so max() needs no NaN test on the scale
    return _worst(abs(x - y) / max(abs(x), abs(y), floor) for x, y in zip(pa, pb))


def _worst(residuals: Iterable[float]) -> float:
    """The largest of some nonnegative residuals, 0.0 for none, and NaN if any is
    NaN, as numpy's maximum propagates it: a NaN residual fails every tolerance."""
    largest = 0.0
    for r in residuals:
        if r != r:
            return r
        if r > largest:
            largest = r
    return largest


def tf_residual(a: RationalTransferFunction, b: RationalTransferFunction) -> float:
    """Largest per-coefficient relative deviation after monic normalization."""
    a = a.canonicalized()
    b = b.canonicalized()
    return _worst((poly_residual(a.num, b.num), poly_residual(a.den, b.den)))


def is_stable(chi: Polynomial) -> bool:
    """True iff every root of chi has a strictly negative real part.

    The Routh test (Routh 1877) on the coefficients alone: every entry of the
    first column of the Routh array must have the sign of the leading
    coefficient.  An entry that is zero, not finite or of the other sign
    means "not stable", so a root on the imaginary axis, or an array that
    leaves the float range, counts as unstable.  A nonzero constant has no
    roots and is stable.
    """
    c = chi.coeffs[::-1]  # descending powers of s
    if c[0] < 0:
        c = [-v for v in c]
    if not 0 < c[0] < math.inf:
        return False
    upper, lower = list(c[0::2]), list(c[1::2])
    while lower:
        if not 0 < lower[0] < math.inf:
            return False
        ratio = upper[0] / lower[0]
        upper, lower = lower, [u - ratio * v for u, v in zip(upper[1:], lower[1:] + [0.0])]
    return True


def log_grid(lo: float = 1e-2, hi: float = 1e4, n: int = 600) -> list[float]:
    """Logarithmic frequency grid of n >= 2 points from lo to hi, finite and
    never containing 0.

    The points are 10**e for exponents e spaced evenly from log10(lo) to
    log10(hi), the last one log10(hi) itself, as numpy's logspace forms them.
    """
    refusal = f"frequency grid needs finite 0 < lo < hi and n >= 2, got lo={lo!r}, hi={hi!r}, n={n!r}"
    if not (0 < lo < hi < math.inf and n >= 2):
        raise ValueError(refusal)
    start, stop = math.log10(lo), math.log10(hi)
    step = (stop - start) / (n - 1)
    exponents = [k * step + start for k in range(n - 1)] + [stop]
    try:
        return [10.0**e for e in exponents]
    except OverflowError:  # 10**log10(hi) rounds past the float range
        raise ValueError(refusal + ": its last point overflows") from None
