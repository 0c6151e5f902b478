"""The numpy half of the LTI layer: state-space models and their step tables.

State-space models (``StateSpaceModel``) and their transfer functions
(``ss_to_tf``, the ``tf._split`` of a model's rows), exact step responses via
zero-order hold (``step_response``, with the array exponential ``_expm``) and
numeric cancellation (``tf_minreal``).  numpy is imported in each function
that needs it, on first use.

The plain-float half (polynomials, transfer functions and their evaluation,
the Routh test, the frequency grid, the split of a realization's rows and the
plain step trace) is ``tf``.  Only the step figures, ``sweep`` and the design
scan need this module; it is kept apart because each fresh process compiles
what it imports when no ``.pyc`` is written, so the bode and gang figures and
``verify`` neither load nor compile it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING

from .tf import _PADE6, Polynomial, RationalTransferFunction, _balance_exponents, _split
from .value import Value

if TYPE_CHECKING:
    import numpy as np

# Samples advanced per block in step_response; a power of two, because a
# block is filled by doubling with phi, phi^2, ..., and phi^STEP_BLOCK
# advances the block starts.
STEP_BLOCK = 64


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


class StateSpaceModel(Value, eq=False):
    """Real matrix quadruple (A, B, C, D) with named inputs and outputs."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __init__(self, A, B, C, D, input_labels: tuple[str, ...] = (), output_labels: tuple[str, ...] = ()):
        import numpy as np

        A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, D))
        n = A.shape[0]
        m = B.shape[1]
        p = C.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape != (n, m) or C.shape != (p, n) or D.shape != (p, m):
            raise ValueError("inconsistent state-space dimensions")
        if m < 1 or p < 1:
            raise ValueError("need at least one input and one output")
        in_labels = input_labels or tuple(f"u{j + 1}" for j in range(m))
        out_labels = output_labels or tuple(f"y{i + 1}" for i in range(p))
        if len(in_labels) != m or len(out_labels) != p:
            raise ValueError("label counts must match input/output counts")
        self._fill(A, B, C, D, tuple(in_labels), tuple(out_labels))

    @classmethod
    def _trusted(cls, A, B, C, D, input_labels: tuple[str, ...], output_labels: tuple[str, ...]) -> "StateSpaceModel":
        """A model of rows of floats and labels already known to pass __init__'s checks,
        made without running them; each matrix is one read-only array of its rows."""
        import numpy as np

        m = object.__new__(cls)
        m._fill(*map(np.array, (A, B, C, D)), input_labels, output_labels)
        return m

    def _fill(self, A, B, C, D, input_labels, output_labels) -> None:
        for mat in (A, B, C, D):
            mat.setflags(write=False)
        self.__dict__.update(A=A, B=B, C=C, D=D, input_labels=input_labels, output_labels=output_labels)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    # one label per column of B and per row of C, which the constructor checks
    @property
    def n_inputs(self) -> int:
        return len(self.input_labels)

    @property
    def n_outputs(self) -> int:
        return len(self.output_labels)


def ss_to_tf(m: StateSpaceModel, input: int = 0, output: int = 0) -> RationalTransferFunction:
    """Transfer function C (sI - A)^-1 B + D of one scalar channel: its _split of m's rows."""
    if not (0 <= input < m.n_inputs and 0 <= output < m.n_outputs):
        raise IndexError("channel index out of range")
    return _split((m.A.tolist(), m.B.tolist(), (m.C[output].tolist(),), (m.D[output].tolist(),)))[input]


class StepResponseTable(Value, eq=False):
    """Named signal traces on a shared uniform time grid starting at 0."""

    t: np.ndarray
    columns: dict[str, np.ndarray]

    def __init__(self, t: np.ndarray, columns: dict[str, np.ndarray]):
        import numpy as np

        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("t must hold at least two samples")
        if t[0] != 0.0:
            raise ValueError("t must start at 0")
        h = t[1] - t[0]
        if h <= 0 or not np.abs(np.diff(t) - h).max() <= 1e-9 * h:
            raise ValueError("t must be uniformly spaced with positive step")
        cols = {}
        for name, values in columns.items():
            v = np.asarray(values, dtype=float)
            if v.shape != t.shape:
                raise ValueError(f"column {name!r} length does not match t")
            cols[name] = v
        self._fill(t, cols)

    @classmethod
    def _trusted(cls, t: np.ndarray, columns: dict[str, np.ndarray]) -> "StepResponseTable":
        """A table of float arrays already known to pass __init__'s checks, made
        without running them again; the arrays are made read-only."""
        table = object.__new__(cls)
        table._fill(t, columns)
        return table

    def _fill(self, t: np.ndarray, columns: dict[str, np.ndarray]) -> None:
        for v in (t, *columns.values()):
            v.setflags(write=False)
        self.__dict__.update(t=t, columns=columns)


def _balance(M: np.ndarray) -> np.ndarray:
    """Power-of-two scales d such that diag(d)^-1 M diag(d) is balanced: 2**e for the
    exponents e of _balance_exponents."""
    import numpy as np

    A = np.abs(M)
    np.fill_diagonal(A, 0.0)
    return np.ldexp(1.0, _balance_exponents(A.tolist()))


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


