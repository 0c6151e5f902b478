"""Scalar continuous-time LTI primitives.

Polynomial sums and products, rational transfer functions (evaluation,
negation, monic normalization, cancellation), state-space models,
conversions between the two, and exact step responses via zero-order hold.

Coefficient convention used everywhere in this package: polynomials store
ascending powers of s, i.e. ``coeffs[k]`` multiplies ``s**k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Transfer-function comparison uses the REL/ABS pair below after monic
# normalization of the denominator.
COEFF_REL_TOL = 1e-9
COEFF_ABS_TOL = 1e-12

# Samples advanced per block in step_response; a power of two, because the
# per-block tables are built by doubling.
STEP_BLOCK = 64
# [6/6] Pade coefficients of exp: c_k = (12-k)! 6! / (12! k! (6-k)!).
_PADE6 = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280)


class ImproperTransferFunctionError(ValueError):
    """A proper transfer function was required but deg(num) > deg(den)."""


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    """The coefficients without trailing exact zeros; every nonzero one is kept, however small."""
    c = list(map(float, coeffs))
    if not c:
        raise ValueError("polynomial needs at least one coefficient")
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if len(c) == 1 and c[0] == 0.0:
        return (0.0,)
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s; ``coeffs[k]`` multiplies ``s**k``."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

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
        """Horner evaluation, the same arithmetic as numpy's polyval."""
        c = np.array(self.coeffs)
        if isinstance(s, (tuple, list)):
            s = np.asarray(s)
        value = c[-1] + s * 0
        for k in range(2, len(c) + 1):
            value = c[-k] + value * s
        return value

    # + and * give the bits of numpy's polyadd and polymul without their
    # series conversion: the longer operand is copied and the shorter one
    # added into its prefix, and products are plain convolutions.
    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) <= len(b):
            a, b = b, a
        out = np.array(a)
        out[: len(b)] += b
        return Polynomial(out.tolist())

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs).tolist())

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def roots(self) -> np.ndarray:
        """Roots via the companion-matrix eigenvalue solver, found once.

        The same arithmetic as numpy's polyroots; the array is shared by every
        call and read-only.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no well-defined root set")
        return self._roots

    @cached_property
    def _roots(self) -> np.ndarray:
        c = np.array(self.coeffs)
        if len(c) == 1:
            r = np.array([], dtype=complex)
        elif len(c) == 2:
            r = np.array([-c[0] / c[1]])
        else:
            n = len(c) - 1
            companion = np.zeros((n, n))
            companion.reshape(-1)[n :: n + 1] = 1.0
            companion[:, -1] -= c[:-1] / c[-1]
            r = np.linalg.eigvals(companion)
            r.sort()
        r.setflags(write=False)
        return r


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of two real polynomials in s."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")

    @classmethod
    def from_coeffs(cls, num: Sequence[float], den: Sequence[float]) -> "RationalTransferFunction":
        return cls(Polynomial(tuple(num)), Polynomial(tuple(den)))

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def canonicalized(self) -> "RationalTransferFunction":
        """Scale num and den by 1/lead so the denominator is monic.

        The new leading coefficient is lead*(1/lead), which is not always 1:
        for lead = 49 it is 1 - 2**-53.  So canonicalizing a result again is
        not a no-op; it can change the last bits of every coefficient.
        """
        lead = self.den.leading
        if lead == 1.0:
            return self
        inv = 1.0 / lead
        return RationalTransferFunction(self.num.scaled(inv), self.den.scaled(inv))

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree or self.num.is_zero

    def poles(self) -> np.ndarray:
        return self.den.roots()


def tf_neg(a: RationalTransferFunction) -> RationalTransferFunction:
    return RationalTransferFunction(a.num.scaled(-1.0), a.den).canonicalized()


def _divide_out(p: Polynomial, roots: list[complex]) -> Polynomial:
    """Quotient of p by the monic polynomial with the given roots; refused past the float range."""
    if not roots:
        return p
    from numpy.polynomial.polynomial import polydiv, polyfromroots

    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.real(polyfromroots(np.asarray(roots, dtype=complex)))
        quotient, _ = polydiv(p.coeffs, factor)
    if not np.isfinite(quotient).all():
        raise ValueError("the transfer function is not representable: dividing out its cancelled roots overflows")
    return Polynomial(tuple(quotient))


def has_close_pair(zeros: np.ndarray, poles: np.ndarray, tol: float) -> bool:
    """True unless every zero lies farther than tol from every pole.

    A NaN distance counts as close, so that tf_minreal's greedy pairing, not
    this test, decides what a non-finite root set cancels.
    """
    if not zeros.size or not poles.size:
        return False
    return not (np.abs(zeros[:, None] - poles) > tol).all()


def tf_minreal(a: RationalTransferFunction, tol: float) -> RationalTransferFunction:
    """Cancel num/den root pairs closer than tol, greedy nearest pair first.

    Surviving coefficients are obtained by dividing out the cancelled
    factors, so an input with nothing to cancel is returned bit-exact (up to
    monic normalization).
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    a = a.canonicalized()
    if a.num.is_zero or a.num.degree == 0 or a.den.degree == 0:
        return a
    zeros = a.num.roots()
    poles = a.den.roots()
    if not has_close_pair(zeros, poles, tol):
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


def _padded_pair(a: Polynomial, b: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    n = max(len(a.coeffs), len(b.coeffs))
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: len(a.coeffs)] = a.coeffs
    pb[: len(b.coeffs)] = b.coeffs
    return pa, pb


def poly_residual(a: Polynomial, b: Polynomial) -> float:
    """Largest per-coefficient relative deviation between two polynomials.

    The scale floor ABS/REL makes ``poly_residual(a, b) <= rtol`` agree with
    the atol+rtol acceptance rule, so absolute noise below the floor does not
    blow up the quotient.
    """
    pa, pb = _padded_pair(a, b)
    floor = COEFF_ABS_TOL / COEFF_REL_TOL
    scale = np.maximum(np.maximum(np.abs(pa), np.abs(pb)), floor)
    return float(np.max(np.abs(pa - pb) / scale))


def tf_residual(a: RationalTransferFunction, b: RationalTransferFunction) -> float:
    """Largest per-coefficient relative deviation after monic normalization."""
    a = a.canonicalized()
    b = b.canonicalized()
    return max(poly_residual(a.num, b.num), poly_residual(a.den, b.den))


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
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "input_labels", tuple(in_labels))
        object.__setattr__(self, "output_labels", tuple(out_labels))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @cached_property
    def resolvent(self) -> tuple[np.ndarray, np.ndarray]:
        """(char, N) of _resolvent(A), computed once and read-only.

        A recursion past the float range gives inf or NaN without a warning;
        ss_to_tf refuses the channels it reaches.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            char, mats = _resolvent(self.A)
        char.setflags(write=False)
        mats.setflags(write=False)
        return char, mats


def _resolvent(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Faddeev-LeVerrier recursion.

    Returns the characteristic polynomial of A (ascending, monic) and the
    matrix coefficients N[k] of adj(sI - A) = sum_k s**k N[k] for k < n.

    The constant term is (-1)**n det(A) by LU, not the recursion's rounded
    trace.  The LU determinant is exact only where the structure gives an
    exact zero row, column or pivot, as the integrator of every ADRC and
    PI(D)F realization does: both controller channels keep their s = 0 pole.
    """
    n = A.shape[0]
    char = np.zeros(n + 1)
    char[n] = 1.0
    mats = np.zeros((n, n, n))
    M = np.eye(n)
    for k in range(1, n + 1):
        if k > 1:
            M = A @ M + char[n - k + 1] * np.eye(n)
        mats[n - k] = M
        char[n - k] = -np.trace(A @ M) / k
    char[0] = (-1) ** n * np.linalg.det(A)
    return char, mats


def ss_to_tf(m: StateSpaceModel, input: int = 0, output: int = 0) -> RationalTransferFunction:
    """Transfer function C (sI - A)^-1 B + D of one scalar channel.

    The resolvent of A is found once per model and shared by its channels.
    A channel whose coefficients overflow is refused with a ValueError,
    without a warning.
    """
    if not 0 <= input < m.n_inputs:
        raise IndexError("input index out of range")
    if not 0 <= output < m.n_outputs:
        raise IndexError("output index out of range")
    n = m.n_states
    char, mats = m.resolvent
    b = m.B[:, input]
    c = m.C[output, :]
    d = float(m.D[output, input])
    with np.errstate(over="ignore", invalid="ignore"):
        num = d * char
        for k in range(n):
            num[k] += float(c @ mats[k] @ b)
    num = num.tolist()
    # this also refuses a non-finite char: char[k], k < n, enters num[k] = d*char[k] + c N[k] b,
    # and d*inf is never finite
    if not all(map(math.isfinite, num)):
        raise ValueError(
            "the controller transfer function at this tuning is not representable: its coefficients overflow"
        )
    return RationalTransferFunction(Polynomial(tuple(num)), Polynomial(tuple(char))).canonicalized()


def tf_to_ss(a: RationalTransferFunction) -> StateSpaceModel:
    """Controllable canonical realization of a proper transfer function."""
    if not a.is_proper:
        raise ImproperTransferFunctionError(
            f"deg(num)={a.num.degree} exceeds deg(den)={a.den.degree}"
        )
    a = a.canonicalized()
    n = a.den.degree
    den = np.asarray(a.den.coeffs)
    num = np.zeros(n + 1)
    num[: len(a.num.coeffs)] = a.num.coeffs
    d = num[n]
    residual = num[:n] - d * den[:n]
    A = np.zeros((n, n))
    if n:
        A[:-1, 1:] = np.eye(n - 1)
        A[-1, :] = -den[:n]
    B = np.zeros((n, 1))
    if n:
        B[-1, 0] = 1.0
    C = residual.reshape(1, n)
    D = np.array([[d]])
    return StateSpaceModel(A, B, C, D, input_labels=("u",), output_labels=("y",))


@dataclass(frozen=True, eq=False)
class StepResponseTable:
    """Named signal traces on a shared uniform time grid starting at 0."""

    t: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
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


def _balance(M: np.ndarray) -> np.ndarray:
    """Power-of-two scales d such that diag(d)^-1 M diag(d) is balanced.

    Osborne's iteration as in LAPACK gebal, without the permutation step:
    each sweep rescales state i so that the off-diagonal 1-norms of its row
    and column meet, jumping straight to the nearest power of two, and the
    sweeps stop once no scale changes.  Power-of-two scales are exact, so
    balancing adds no rounding error.  Plain lists, because for n <= 7 the
    per-call overhead of numpy reductions would dominate.
    """
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
            r = sum(row)
            c = 0.0
            for other in A:
                c += other[i]
            if c == 0.0 or r == 0.0:
                continue
            try:
                k = round(0.5 * math.log2(r / c))
            except (OverflowError, ValueError):  # r / c over- or underflowed
                k = round(0.5 * (math.log2(r) - math.log2(c)))
            if k:
                f = 2.0**k
                if c * f + r / f < 0.95 * (c + r):
                    for other in A:
                        other[i] *= f
                    A[i] = [v / f for v in row]
                    exponents[i] += k
                    changed = True
    return np.ldexp(1.0, exponents)


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small dense matrix.

    Balanced scaling and squaring with a [6/6] Pade approximant (Moler and
    Van Loan, "Nineteen dubious ways to compute the exponential of a
    matrix").  Balancing first keeps the result accurate when the entries
    span many decades, as ADRC closed loops do when T_s is far from 1.
    """
    d = _balance(M)
    B = M * d[None, :] / d[:, None]
    norm = float(np.abs(B).sum(axis=0).max())
    j = max(0, math.frexp(norm)[1] + 1)
    B = B * 2.0**-j  # now ||B||_1 < 1/2
    eye = np.eye(M.shape[0])
    B2 = B @ B
    B4 = B2 @ B2
    U = B @ (_PADE6[1] * eye + _PADE6[3] * B2 + _PADE6[5] * B4)
    V = _PADE6[0] * eye + _PADE6[2] * B2 + _PADE6[4] * B4 + _PADE6[6] * (B4 @ B2)
    E = np.linalg.solve(V - U, V + U)
    # an exponential past the float range squares to inf or NaN, which the
    # caller refuses; it is no cause for a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(j):
            E = E @ E
        return E * d[:, None] / d[None, :]


def step_response(m: StateSpaceModel, input: int = 0, t_end: float = 10.0, n_steps: int = 4000) -> StepResponseTable:
    """Unit-step response from zero initial state, exact at sample instants.

    The state is extended with the constant input and the augmented matrix is
    exponentiated once at h = t_end / n_steps, so the zero-order-hold
    discretization reproduces the continuous solution exactly on the grid.

    The recurrence x[k+1] = Ad x[k] + bd advances STEP_BLOCK samples at a
    time: with S_j = sum_{i<j} Ad^i bd, the states of a block that starts in
    x are Ad^j x + S_j, and the next block starts in Ad^B x + S_B.  Every
    sample is y = C x + d of its own state; past the first state that
    overflows, a diverging trace is NaN, as the recurrence itself would be.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
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
    if not np.isfinite(phi).all():
        raise ValueError(unrepresentable + "the model's exponential over one sample time overflows")
    Ad = phi[:n, :n]
    bd = phi[:n, n]
    n_blocks = -(-(n_steps + 1) // STEP_BLOCK)
    with np.errstate(over="ignore", invalid="ignore"):
        # powers[j] = Ad^j and sums[j] = S_j for j < STEP_BLOCK, by doubling:
        # each pass enters with power = Ad^k and s = S_k.
        powers = np.empty((STEP_BLOCK, n, n))
        sums = np.empty((STEP_BLOCK, n))
        powers[0] = np.eye(n)
        sums[0] = 0.0
        power, s = Ad, bd
        k = 1
        while k < STEP_BLOCK:
            powers[k : 2 * k] = power @ powers[:k]
            sums[k : 2 * k] = sums[:k] + powers[:k] @ s
            s = s + power @ s
            power = power @ power
            k *= 2
        starts = np.empty((n, n_blocks))
        x = np.zeros(n)
        for b in range(n_blocks):
            starts[:, b] = x
            x = power @ x + s
        # states[b, j] = Ad^j x_b + S_j is the state at sample b*B + j
        states = (powers @ starts + sums[:, :, None]).transpose(2, 0, 1).reshape(-1, n)[: n_steps + 1]
        samples = states @ m.C.T + m.D[:, input]
    overflowed = ~np.isfinite(states).all(axis=1)
    if overflowed.any():
        samples[np.argmax(overflowed) + 1 :] = np.nan
    t = np.linspace(0.0, t_end, n_steps + 1)
    cols = {name: samples[:, i].copy() for i, name in enumerate(m.output_labels)}
    return StepResponseTable(t, cols)


def is_stable(m: StateSpaceModel) -> bool:
    """True iff every eigenvalue of A has strictly negative real part."""
    return m.n_states == 0 or bool(np.all(np.linalg.eigvals(m.A).real < 0))


def log_grid(lo: float = 1e-2, hi: float = 1e4, n: int = 600) -> np.ndarray:
    """Logarithmic frequency grid of n >= 2 points from lo to hi, finite and
    never containing 0."""
    if not (0 < lo < hi < math.inf and n >= 2):
        raise ValueError(
            f"frequency grid needs finite 0 < lo < hi and n >= 2, got lo={lo!r}, hi={hi!r}, n={n!r}"
        )
    return np.logspace(np.log10(lo), np.log10(hi), n)
