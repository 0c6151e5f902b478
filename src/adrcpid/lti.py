"""Scalar continuous-time LTI primitives.

Polynomial sums and products, rational transfer functions (evaluation,
negation, monic normalization, cancellation), state-space models and their
transfer functions, exact step responses via zero-order hold, and the Routh test.

Two halves.  Polynomials, transfer functions, their evaluation at s, their
residuals, the Routh test and the frequency grid are plain Python floats and
complex numbers, so the frequency-domain commands run without numpy.  The
state-space half (models, ``ss_to_tf``, ``step_response``, ``tf_minreal``)
imports numpy in each function that needs it, on first use.

Coefficient convention used everywhere in this package: polynomials store
ascending powers of s, i.e. ``coeffs[k]`` multiplies ``s**k``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

# Transfer-function comparison uses the REL/ABS pair below after monic
# normalization of the denominator.
COEFF_REL_TOL = 1e-9
COEFF_ABS_TOL = 1e-12

# Samples advanced per block in step_response; a power of two, because a
# block is filled by doubling with phi, phi^2, ..., and phi^STEP_BLOCK
# advances the block starts.
STEP_BLOCK = 64
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


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s; ``coeffs[k]`` multiplies ``s**k``."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        # a list first: a tuple built straight from the map iterator is sized by
        # a guess and shrunk, which fills the interpreter's tuple free lists
        c = list(map(float, self.coeffs))
        if not c:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", _trimmed(c))

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


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of two real polynomials in s."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")

    def __call__(self, s):
        """num(s)/den(s), both by Horner in s; at each point of s if s is not a number.

        Where num(s), den(s) or their quotient leaves the float range at
        |s| > 1, the point is evaluated in z = 1/s instead, as
        z**(deg den - deg num) times the ratio of the reversed coefficients
        at z, so that the powers of s that cancel in the ratio are never
        formed.  Elsewhere the value is the plain ratio.  A quotient by zero,
        or a power of z past the float range, is NaN.
        """
        return _at_points(self._values, s)

    def _values(self, points: list) -> list:
        num, den = _horner(self.num.coeffs, points), _horner(self.den.coeffs, points)
        ratio = [n / d if d else math.nan for n, d in zip(num, den)]
        if all(map(cmath.isfinite, num + den + ratio)):
            return ratio
        redo = [
            k
            for k, (n, d, r, s) in enumerate(zip(num, den, ratio, points))
            if not (cmath.isfinite(n) and cmath.isfinite(d) and cmath.isfinite(r)) and abs(s) > 1
        ]
        z = [1.0 / points[k] for k in redo]
        rnum, rden = _horner(self.num.coeffs[::-1], z), _horner(self.den.coeffs[::-1], z)
        for k, z_k, n, d in zip(redo, z, rnum, rden):
            try:
                ratio[k] = z_k ** (self.den.degree - self.num.degree) * n / d
            except (OverflowError, ZeroDivisionError):
                ratio[k] = math.nan
        return ratio

    def canonicalized(self) -> "RationalTransferFunction":
        """num/den over a monic denominator, by the rule of _over; self if den is monic already."""
        return self if self.den.leading == 1.0 else _over(self.den)(self.num)


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


def _divide_out(p: Polynomial, roots: list[complex]) -> Polynomial:
    """Quotient of p by the monic polynomial with the given roots; refused past the float range."""
    if not roots:
        return p
    import numpy as np
    from numpy.polynomial.polynomial import polydiv, polyfromroots

    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.real(polyfromroots(np.asarray(roots, dtype=complex)))
        quotient, _ = polydiv(p.coeffs, factor)
    if not np.isfinite(quotient).all():
        raise ValueError("the transfer function is not representable: dividing out its cancelled roots overflows")
    return Polynomial(tuple(quotient))


def tf_minreal(a: RationalTransferFunction, tol: float) -> RationalTransferFunction:
    """Cancel num/den root pairs closer than tol, greedy nearest pair first.

    Roots come from numpy's companion-matrix polyroots.  Surviving
    coefficients are obtained by dividing out the cancelled factors, so an
    input with nothing to cancel is returned bit-exact (up to monic
    normalization).
    """
    import numpy as np
    from numpy.polynomial.polynomial import polyroots

    if tol < 0:
        raise ValueError("tol must be >= 0")
    a = a.canonicalized()
    if a.num.is_zero or a.num.degree == 0 or a.den.degree == 0:
        return a
    zeros = polyroots(a.num.coeffs)
    poles = polyroots(a.den.coeffs)
    # a NaN distance counts as close, so that the greedy pairing, not this
    # test, decides what a non-finite root set cancels
    if (np.abs(zeros[:, None] - poles) > tol).all():
        return a
    pairs = sorted(
        (abs(z - p), i, j)
        for i, z in enumerate(zeros)
        for j, p in enumerate(poles)
    )
    cancel_z: list[complex] = []
    cancel_p: list[complex] = []
    used_z = [False] * len(zeros)
    used_p = [False] * len(poles)
    for dist, i, j in pairs:
        if dist > tol:
            break
        if not used_z[i] and not used_p[j]:
            used_z[i] = True
            used_p[j] = True
            cancel_z.append(zeros[i])
            cancel_p.append(poles[j])
    if not cancel_z:
        return a
    num = _divide_out(a.num, cancel_z)
    den = _divide_out(a.den, cancel_p)
    return RationalTransferFunction(num, den).canonicalized()


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


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Real matrix quadruple (A, B, C, D) with named inputs and outputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    input_labels: tuple[str, ...] = ()
    output_labels: tuple[str, ...] = ()

    def __post_init__(self):
        import numpy as np

        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        m = B.shape[1]
        p = C.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape != (n, m) or C.shape != (p, n) or D.shape != (p, m):
            raise ValueError("inconsistent state-space dimensions")
        if m < 1 or p < 1:
            raise ValueError("need at least one input and one output")
        in_labels = self.input_labels or tuple(f"u{j + 1}" for j in range(m))
        out_labels = self.output_labels or tuple(f"y{i + 1}" for i in range(p))
        if len(in_labels) != m or len(out_labels) != p:
            raise ValueError("label counts must match input/output counts")
        self._fill(A, B, C, D, tuple(in_labels), tuple(out_labels))

    @classmethod
    def _trusted(cls, A, B, C, D, input_labels: tuple[str, ...], output_labels: tuple[str, ...]) -> "StateSpaceModel":
        """A model of rows of floats and labels already known to pass __post_init__,
        made without running it; each matrix is one read-only array of its rows."""
        import numpy as np

        m = object.__new__(cls)
        m._fill(*map(np.array, (A, B, C, D)), input_labels, output_labels)
        return m

    def _fill(self, A, B, C, D, input_labels, output_labels) -> None:
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "input_labels", input_labels)
        object.__setattr__(self, "output_labels", output_labels)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def _resolvent(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Faddeev-LeVerrier recursion.

    Returns the characteristic polynomial of A (ascending, monic) and the
    matrix coefficients N[k] of adj(sI - A) = sum_k s**k N[k] for k < n.

    The constant term is (-1)**n det(A) by LU, not the recursion's rounded
    trace.  The LU determinant is exact only where the structure gives an
    exact zero row, column or pivot, as the integrator of every ADRC and
    PI(D)F realization does: both controller channels keep their s = 0 pole.
    """
    import numpy as np

    n = A.shape[0]
    char = np.zeros(n + 1)
    char[n] = 1.0
    mats = np.zeros((n, n, n))
    M = eye = np.eye(n)
    for k in range(1, n + 1):
        mats[n - k] = M
        if k < n:  # the last trace would give char[0], which det(A) replaces
            AM = A @ M
            char[n - k] = -np.trace(AM) / k
            M = AM + char[n - k] * eye
    char[0] = (-1) ** n * np.linalg.det(A)
    return char, mats


def ss_to_tf(m: StateSpaceModel, input: int = 0, output: int = 0) -> RationalTransferFunction:
    """Transfer function C (sI - A)^-1 B + D of one scalar channel, over the monic
    characteristic polynomial char of A.

    Its numerator is d * char + [c N[k] b], N[k] the matrices of _resolvent,
    each term one vector-matrix product and one dot product.  A channel whose
    coefficients overflow is refused with a ValueError, without a warning.
    """
    import numpy as np

    if not 0 <= input < m.n_inputs:
        raise IndexError("input index out of range")
    if not 0 <= output < m.n_outputs:
        raise IndexError("output index out of range")
    b, c = m.B[:, input], m.C[output]
    with np.errstate(over="ignore", invalid="ignore"):
        char, mats = _resolvent(m.A)
        num = float(m.D[output, input]) * char
        for k in range(m.n_states):
            num[k] += float(c @ mats[k] @ b)
    num = num.tolist()
    # this also refuses a non-finite char: char[k], k < n, enters num[k] = d*char[k] + c N[k] b,
    # and d*inf is never finite
    if not all(map(math.isfinite, num)):
        raise ValueError(
            "the controller transfer function at this tuning is not representable: its coefficients overflow"
        )
    return _tf(_poly(num), _poly(char.tolist()))


@dataclass(frozen=True, eq=False)
class StepResponseTable:
    """Named signal traces on a shared uniform time grid starting at 0."""

    t: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        import numpy as np

        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("t must hold at least two samples")
        if t[0] != 0.0:
            raise ValueError("t must start at 0")
        h = t[1] - t[0]
        if h <= 0 or not np.abs(np.diff(t) - h).max() <= 1e-9 * h:
            raise ValueError("t must be uniformly spaced with positive step")
        t.setflags(write=False)
        cols = {}
        for name, values in self.columns.items():
            v = np.asarray(values, dtype=float)
            if v.shape != t.shape:
                raise ValueError(f"column {name!r} length does not match t")
            v.setflags(write=False)
            cols[name] = v
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _trusted(cls, t: np.ndarray, columns: dict[str, np.ndarray]) -> "StepResponseTable":
        """A table of float arrays already known to pass __post_init__, made
        without running it again; the arrays are made read-only."""
        table = object.__new__(cls)
        for v in (t, *columns.values()):
            v.setflags(write=False)
        object.__setattr__(table, "t", t)
        object.__setattr__(table, "columns", columns)
        return table


def _balance(M: np.ndarray) -> np.ndarray:
    """Power-of-two scales d such that diag(d)^-1 M diag(d) is balanced.

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
    import numpy as np

    n = M.shape[0]
    A = np.abs(M)
    np.fill_diagonal(A, 0.0)
    A = A.tolist()
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
    return np.ldexp(1.0, exponents)


@functools.cache
def _pade_eyes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c_1 I, c_0 I) of the [6/6] Pade approximant for n x n matrices, made once per size, read-only."""
    import numpy as np

    eyes = (_PADE6[1] * np.eye(n), _PADE6[0] * np.eye(n))
    for eye in eyes:
        eye.setflags(write=False)
    return eyes


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense matrix.

    Balanced scaling and squaring with a [6/6] Pade approximant (Moler and
    Van Loan, "Nineteen dubious ways to compute the exponential of a
    matrix").  Balancing first keeps the result accurate when the entries
    span many decades, as ADRC closed loops do when T_s is far from 1.
    """
    import numpy as np

    d = _balance(M)
    B = M * d[None, :] / d[:, None]
    norm = float(np.abs(B).sum(axis=0).max())
    j = max(0, math.frexp(norm)[1] + 1)
    B = B * 2.0**-j  # now ||B||_1 < 1/2
    c1_eye, c0_eye = _pade_eyes(M.shape[0])
    B2 = B @ B
    B4 = B2 @ B2
    U = B @ (c1_eye + _PADE6[3] * B2 + _PADE6[5] * B4)
    V = c0_eye + _PADE6[2] * B2 + _PADE6[4] * B4 + _PADE6[6] * (B4 @ B2)
    E = np.linalg.solve(V - U, V + U)
    # an exponential past the float range squares to inf or NaN, which the
    # caller refuses; it is no cause for a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(j):
            E = E @ E
        return E * d[:, None] / d[None, :]


def step_response(m: StateSpaceModel, input: int = 0, t_end: float = 10.0, n_steps: int = 4000) -> StepResponseTable:
    """Unit-step response from zero initial state, exact at sample instants.

    The augmented state z = [x; 1] advances by phi = exp([[A, b], [0, 0]] h),
    h = t_end / n_steps (Van Loan, "Computing integrals involving the matrix
    exponential", IEEE TAC 1978): the zero-order hold, exact on the grid.
    Blocks start STEP_BLOCK samples apart, one phi^STEP_BLOCK step each, and
    doublings z[j + k] = phi^k z[j], k = 1, 2, ..., STEP_BLOCK / 2, fill them.
    Every sample is y = C x + d of its own state.

    A power of phi can overflow before the state it advances does, and the
    recurrence can overflow a state that the doubling finds finite.  So from
    the first state that one step of phi could overflow, the trace is stepped
    sample by sample, and a diverging trace is NaN after the first state that
    overflows, as in the per-sample recurrence.
    """
    import numpy as np

    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    if not 0 <= input < m.n_inputs:
        raise IndexError("input index out of range")
    n = m.n_states
    h = t_end / n_steps
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = m.A
    aug[:n, n] = m.B[:, input]
    unrepresentable = "the step response at this tuning is not representable: "
    # a finite bound on every row and column sum of aug * h, so that _expm
    # balances and scales finite numbers
    if not math.isfinite(float(np.abs(aug).max()) * h * (n + 1)):
        raise ValueError(unrepresentable + "the model's entries times the sample time overflow or are not finite")
    phi = _expm(aug * h)
    phi_max = float(np.abs(phi).max())  # NaN if an entry is
    if not phi_max < math.inf:
        raise ValueError(unrepresentable + "the model's exponential over one sample time overflows")
    n_blocks = -(-(n_steps + 1) // STEP_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [phi]  # phi^(2^i), up to phi^STEP_BLOCK
        while len(powers) < STEP_BLOCK.bit_length():
            powers.append(powers[-1] @ powers[-1])
        # column j * n_blocks + b holds the state at sample b * STEP_BLOCK + j
        z = np.empty((n + 1, STEP_BLOCK * n_blocks))
        z[:, 0] = 0.0
        z[n, 0] = 1.0
        for b in range(1, n_blocks):
            z[:, b] = powers[-1].dot(z[:, b - 1])
        width = n_blocks
        for power in powers[:-1]:
            z[:, width : 2 * width] = power @ z[:, :width]
            width *= 2
        states = z.reshape(n + 1, STEP_BLOCK, n_blocks).transpose(0, 2, 1).reshape(n + 1, -1)[:, : n_steps + 1]
        # below this bound no term or partial sum of phi @ state can
        # overflow; NaN fails the test too
        safe = sys.float_info.max / ((n + 1) * phi_max)
        magnitudes = np.abs(states)
        k = n_steps + 1
        if not magnitudes.max() <= safe:  # the first flagged sample
            k = max(1, int(np.argmax(~(magnitudes.max(axis=0) <= safe))))
        # from the last state below the bound on, step one sample at a time,
        # as the recurrence does, until a state overflows
        while k <= n_steps:
            states[:, k] = phi @ states[:, k - 1]
            if not np.isfinite(states[:, k]).all():
                break
            k += 1
        samples = m.C @ states[:n]
        samples += m.D[:, input, None]
    samples[:, k + 1 :] = np.nan
    t = np.arange(n_steps + 1, dtype=float)
    t *= h
    t[-1] = t_end  # the bits of np.linspace(0, t_end, n_steps + 1)
    cols = dict(zip(m.output_labels, samples))
    if h < sys.float_info.min:
        # a subnormal step is rounded to multiples of the smallest float, so
        # the grid may not be uniform: the table checks it
        return StepResponseTable(t, cols)
    return StepResponseTable._trusted(t, cols)


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
