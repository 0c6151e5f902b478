"""The plain-float row algebra of the LTI layer: a realization's rows split into
transfer functions, and one step trace of a loop's rows.

A realization here is its rows (A, B, C, D), lists of floats.  ``_split`` gives
C (sI - A)^-1 b + d of each input over the characteristic polynomial of A, by
the Faddeev-LeVerrier recursion ``_resolvent``; ``_step_trace`` steps a unit
step through the zero-order hold of the rows, with the plain-float matrix
exponential ``_expm_rows``.  Only ``verify``, which checks each controller's
closed forms against its realization and steps one settling trace, and
``lti``, which splits its state-space models and shares the balancing and the
Pade coefficients of ``_expm_rows``, import this module.  It is kept apart
from ``tf`` because each fresh process compiles what it imports when no
``.pyc`` is written: the bode and gang figures neither load nor compile it.

So there are two matrix exponentials, ``lti._expm`` on arrays and
``_expm_rows`` here on float rows, the same method in the same order of
operations, sharing the balancing exponents and the Pade coefficients.
Neither can replace the other: in plain floats the exponential of one closed
loop takes about 3 (order 1) to 5 (order 2) times as long, which would slow
the many short traces of a design scan, while numpy's import costs a
``verify`` process several times its one settling trace.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from typing import Iterable, Sequence

from .tf import CHANNELS_OVERFLOW, RationalTransferFunction, _poly, _tf, _worst

# [6/6] Pade coefficients of exp: c_k = (12-k)! 6! / (12! k! (6-k)!).
_PADE6 = (1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280)


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
