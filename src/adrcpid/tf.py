"""Scalar continuous-time LTI primitives in plain Python floats.

Polynomial sums and products, rational transfer functions (evaluation,
negation, monic normalization, residuals), the Routh test, the frequency
grid, the split of a realization's rows into its transfer functions
(``_split``) and one step trace of a realization's rows (``_step_trace``,
with its plain-float matrix exponential ``_expm_rows``).  Of the LTI layer,
the bode and gang figures and ``verify`` need this module alone.

The numpy half of the LTI layer (state-space models, ``step_response``,
``tf_minreal``) is ``lti``, kept apart because each fresh process compiles
what it imports when no ``.pyc`` is written: a bode or gang figure or
``verify`` never loads it.  So there are two matrix exponentials, ``lti._expm``
on arrays and ``_expm_rows`` here on float rows, the same method in the same
order of operations, sharing the balancing exponents and the Pade
coefficients.  Neither can replace the other: in plain floats the exponential
of one closed loop takes about 3 (order 1) to 5 (order 2) times as long, which
would slow the many short traces of a design scan, while numpy's import costs
a ``verify`` process several times its one settling trace.

Coefficient convention used everywhere in this package: polynomials store
ascending powers of s, i.e. ``coeffs[k]`` multiplies ``s**k``.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain
from typing import Callable, Iterable, Sequence

from .value import Value

# Transfer-function comparison uses the REL/ABS pair below after monic
# normalization of the denominator.
COEFF_REL_TOL = 1e-9
COEFF_ABS_TOL = 1e-12

# The refusal of a controller's channels, split or closed-form, past the float range.
CHANNELS_OVERFLOW = "the controller transfer function at this tuning is not representable: its coefficients overflow"

# [6/6] Pade coefficients of exp: c_k = (12-k)! 6! / (12! k! (6-k)!).
_PADE6 = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280)


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


def _det(A: Sequence[Sequence[float]]) -> float:
    """det(A) of float rows by Gaussian elimination with partial pivoting, as LAPACK's getrf
    pivots, and exactly 0.0 at a zero pivot, as an exact zero column (an integrator) gives."""
    M, det = [list(row) for row in A], 1.0
    for k in range(len(M)):
        p = max(range(k, len(M)), key=lambda i: abs(M[i][k]))
        M[k], M[p], det = M[p], M[k], det if p == k else -det
        if M[k][k] == 0.0:  # the column is zero from row k down
            return 0.0
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return det


def _dot(a: Iterable[float], b: Iterable[float]) -> float:
    """The sum of the products of a and b, left to right from 0.0."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _resolvent(A: Sequence[Sequence[float]]) -> tuple[list[float], list[list[list[float]]]]:
    """Faddeev-LeVerrier recursion on float rows, each sum taken left to right from 0.0.

    Returns the characteristic polynomial of A (ascending, monic) and the
    matrix coefficients N[k] of adj(sI - A) = sum_k s**k N[k] for k < n.
    The constant term is (-1)**n det(A) by _det, not the recursion's rounded
    trace: an exact 0.0 for the integrator of every ADRC and PI(D)F realization,
    so that both controller channels keep their s = 0 pole.
    """
    n = len(A)
    char, M = [0.0] * n + [1.0], [[float(i == j) for j in range(n)] for i in range(n)]
    mats = [M] if n else []
    for k in range(1, n):  # the last trace would give char[0], which det(A) replaces
        AM = _matmul(A, M)
        c = char[n - k] = -functools.reduce(float.__add__, (row[i] for i, row in enumerate(AM)), 0.0) / k
        M = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AM)]
        mats.insert(0, M)
    char[0] = (-1) ** n * _det(A)
    return char, mats


def _split(realization: Sequence[Sequence[Sequence[float]]]) -> tuple[RationalTransferFunction, ...]:
    """C (sI - A)^-1 b + d of the rows (A, B, C, D) of a one-output realization, one transfer
    function per input, over the one monic characteristic polynomial char of A.

    Each numerator is d * char + [c N[k] b], N[k] the matrices of _resolvent, the
    row c N[k] formed once for every input.  A channel whose coefficients overflow
    is refused with a ValueError.
    """
    A, B, (c,), (d,) = realization
    char, mats = _resolvent(A)
    rows = [[_dot(c, col) for col in zip(*N)] for N in mats]
    nums = []
    for j, d_j in enumerate(d):
        b = [row[j] for row in B]
        nums.append([d_j * x + _dot(row, b) for x, row in zip(char, rows)] + [d_j])
    # this also refuses a non-finite char: char[k], k < n, enters num[k] = d*char[k] + c N[k] b,
    # and d*inf is never finite
    if not all(map(math.isfinite, chain.from_iterable(nums))):
        raise ValueError(CHANNELS_OVERFLOW)
    den = _poly(char)
    return tuple(_tf(_poly(num), den) for num in nums)


def _balance_exponents(A: list[list[float]]) -> list[int]:
    """Power-of-two exponents e such that diag(2**e)^-1 M diag(2**e) is balanced, from the
    rows A of |M| with its diagonal set to 0.0, which the iteration rescales in place.

    Osborne's iteration as in LAPACK gebal, without the permutation step:
    each sweep rescales state i so that the off-diagonal 1-norms of its row
    and column meet, jumping straight to the nearest power of two, and the
    sweeps stop once no scale changes.  Power-of-two scales are exact, so
    balancing adds no rounding error.  As gebal bounds its scales to the safe
    float range, each exponent stays within +-1000, so that every scale is
    finite and nonzero: where a column's off-diagonal entries are subnormal,
    the iteration would otherwise scale its state past the float range.  Plain
    lists, because for n <= 7 the per-call overhead of numpy reductions would dominate.
    """
    n = len(A)
    exponents = [0] * n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = A[i]
            # plain left-to-right sums: the builtin sum() of floats is
            # compensated from Python 3.12 on, which could change the scales
            r = c = 0.0
            for v, other in zip(row, A):
                r += v
                c += other[i]
            if c == 0.0 or r == 0.0:
                continue
            try:
                k = round(0.5 * math.log2(r / c))
            except (OverflowError, ValueError):  # r / c over- or underflowed
                k = round(0.5 * (math.log2(r) - math.log2(c)))
            if k:
                if not -1000 <= exponents[i] + k <= 1000:
                    k = (1000 if k > 0 else -1000) - exponents[i]
                f = 2.0**k
                if c * f + r / f < 0.95 * (c + r):
                    for other in A:
                        other[i] *= f
                    A[i] = [v / f for v in row]
                    exponents[i] += k
                    changed = True
    return exponents


def _matmul(X: Sequence[Sequence[float]], Y: Sequence[Sequence[float]]) -> list[list[float]]:
    """The product of two matrices of float rows, each entry a _dot."""
    cols = list(zip(*Y))
    return [[_dot(row, col) for col in cols] for row in X]


def _solve(A: Sequence[Sequence[float]], B: Sequence[Sequence[float]]) -> list[list[float]]:
    """X with A X = B for float rows, by Gaussian elimination with partial pivoting, as
    LAPACK's gesv pivots, and back substitution; A must be nonsingular."""
    n = len(A)
    M = [[*a, *b] for a, b in zip(A, B)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(M[i][k]))
        M[k], M[p] = M[p], M[k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    for k in reversed(range(n)):
        M[k] = [v / M[k][k] for v in M[k]]
        for i in range(k):
            f = M[i][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return [row[n:] for row in M]


def _expm_rows(M: Sequence[Sequence[float]]) -> list[list[float]]:
    """Matrix exponential of a small matrix of finite float rows, by _expm's method and
    order of operations in plain floats: balancing, scaling by 2**-j, the [6/6] Pade
    approximant (V - U)^-1 (V + U) and j squarings.  An exponential past the float
    range has entries that are not finite."""
    n = len(M)
    off_diagonal = [[0.0 if i == k else abs(x) for k, x in enumerate(row)] for i, row in enumerate(M)]
    d = [math.ldexp(1.0, e) for e in _balance_exponents(off_diagonal)]
    B = [[x * d_j / d_i for x, d_j in zip(row, d)] for row, d_i in zip(M, d)]
    norm = max(functools.reduce(float.__add__, map(abs, col), 0.0) for col in zip(*B))
    j = max(0, math.frexp(norm)[1] + 1)
    scale = math.ldexp(1.0, -j)
    B = [[x * scale for x in row] for row in B]  # now ||B||_1 < 1/2
    B2 = _matmul(B, B)
    B4 = _matmul(B2, B2)
    B6 = _matmul(B4, B2)
    c0, c1, c2, c3, c4, c5, c6 = _PADE6
    eye = [[float(i == k) for k in range(n)] for i in range(n)]
    inner = [[c1 * e + c3 * x2 + c5 * x4 for e, x2, x4 in zip(*rows)] for rows in zip(eye, B2, B4)]
    U = _matmul(B, inner)
    V = [[c0 * e + c2 * x2 + c4 * x4 + c6 * x6 for e, x2, x4, x6 in zip(*rows)] for rows in zip(eye, B2, B4, B6)]
    pairs = [list(zip(v, u)) for v, u in zip(V, U)]
    E = _solve([[v - u for v, u in row] for row in pairs], [[v + u for v, u in row] for row in pairs])
    for _ in range(j):
        E = _matmul(E, E)
    return [[x * d_i / d_j for x, d_j in zip(row, d)] for row, d_i in zip(E, d)]


def _step_trace(rows: Sequence[Sequence[Sequence[float]]], t_end: float, n_steps: int) -> list[float]:
    """The first output of the float rows (A, B, C, D) at the n_steps + 1 samples of
    step_response's grid, for a unit step on the first input from zero initial state, in
    plain floats.

    phi = exp([[A, b], [0, 0]] h), h = t_end / n_steps, by _expm_rows (the zero-order
    hold of step_response), then the per-sample recurrence x <- Phi x + gamma, where
    [Phi, gamma] are phi's first n rows, and y = c x + d.  A trace that cannot be
    computed, because an entry of the rows times h or an entry of phi is not finite, is
    NaN at every sample; a diverging one is not finite from the first state that overflows.
    """
    A, B, (c, *_), (d, *_) = rows
    n = len(A)
    h = t_end / n_steps
    aug = [[*row, b[0]] for row, b in zip(A, B)] + [[0.0] * (n + 1)]
    # as step_response bounds it: every row and column sum of aug * h finite, NaN failing too
    if not math.isfinite(_worst(abs(x) for row in aug for x in row) * h * (n + 1)):
        return [math.nan] * (n_steps + 1)
    phi = _expm_rows([[x * h for x in row] for row in aug])
    if not all(map(math.isfinite, chain.from_iterable(phi))):
        return [math.nan] * (n_steps + 1)
    step = [(row[:n], row[n]) for row in phi[:n]]
    x, y = [0.0] * n, []
    for _ in range(n_steps + 1):
        y.append(_dot(c, x) + d[0])
        x = [_dot(p, x) + gamma for p, gamma in step]
    return y


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
