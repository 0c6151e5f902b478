import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from adrcpid.design import SETTLING_CONSTANTS
from adrcpid.lti import Polynomial, RationalTransferFunction, StateSpaceModel, _balance

# Property tests replay the same examples on every run and keep no example
# database, so a failure reproduces and a pass does not depend on past runs.
settings.register_profile("adrcpid", derandomize=True, deadline=None, database=None)
settings.load_profile("adrcpid")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# the aim-3 tuning range: log-uniform T_s, g and |b0|, either sign of b0
TUNINGS = st.tuples(
    st.sampled_from((1, 2)),
    log_uniform(1e-3, 1e3),
    log_uniform(1.0, 1e3),
    st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-3, 1e3)),
)


def design_gains(design) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(feedback, observer) gains of a design, read from its named gains: ((K_P[, K_D]), (l1, l2[, l3]))."""
    if design.order == 1:
        return (design.K_P,), (design.l1, design.l2)
    return (design.K_P, design.K_D), (design.l1, design.l2, design.l3)


def tf(num, den) -> RationalTransferFunction:
    """The transfer function num/den of coefficients in ascending powers of s, by the checked constructors."""
    return RationalTransferFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


def plant_tf(plant) -> RationalTransferFunction:
    """A plant's transfer function as written: K/(T s + 1) or K/(T^2 s^2 + 2 D T s + 1)."""
    den = (1.0, plant.T) if plant.order == 1 else (1.0, 2.0 * plant.D * plant.T, plant.T**2)
    return tf((plant.K,), den)


def tf_to_ss(a) -> StateSpaceModel:
    """Controllable canonical realization of a proper transfer function; the
    oracle of the plant block that analysis.closed_loop builds directly."""
    if a.num.degree > a.den.degree and not a.num.is_zero:
        raise ValueError(f"deg(num)={a.num.degree} exceeds deg(den)={a.den.degree}")
    a = a.canonicalized()
    n = a.den.degree
    den = np.asarray(a.den.coeffs)
    num = np.zeros(n + 1)
    num[: len(a.num.coeffs)] = a.num.coeffs
    d = num[n]
    A = np.zeros((n, n))
    if n:
        A[:-1, 1:] = np.eye(n - 1)
        A[-1, :] = -den[:n]
    B = np.zeros((n, 1))
    if n:
        B[-1, 0] = 1.0
    C = (num[:n] - d * den[:n]).reshape(1, n)
    return StateSpaceModel(A, B, C, np.array([[d]]), input_labels=("u",), output_labels=("y",))


def mp_stable(A, dps=120) -> bool:
    """True if every eigenvalue of A has a negative real part, by a dps-digit mpmath solve.

    A is balanced first by the exact power-of-two similarity of lti._balance,
    which keeps its eigenvalues and makes the solve accurate where the
    entries span hundreds of decades.
    """
    d = _balance(A)
    A = A * d[None, :] / d[:, None]
    with mpmath.workdps(dps):
        eigenvalues = mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)
        return all(mpmath.re(e) < 0 for e in eigenvalues)


def exact_adrc_split(order, T_s, g, b0) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(C_r num, C_y num, den) of build_adrc's realization in exact rational
    arithmetic, ascending, den monic: the matrices are built from the float
    inputs taken as Fractions, not from the rounded float matrices, and split
    by Faddeev-LeVerrier and C adj(sI - A) B + D char."""
    n, m = order, order + 1
    w = Fraction(SETTLING_CONSTANTS[n]) / Fraction(T_s)
    g, b0 = Fraction(g), Fraction(b0)
    feedback = [math.comb(n, i) * w ** (n - i) for i in range(n)] + [Fraction(1)]
    observer = [math.comb(n + 1, i) * (g * w) ** i for i in range(1, m + 1)]
    A = [[-observer[i] if j == 0 else Fraction(int(j == i + 1)) for j in range(m)] for i in range(m)]
    A[n - 1] = [a - f for a, f in zip(A[n - 1], feedback)]
    b_r = [feedback[0] if i == n - 1 else Fraction(0) for i in range(m)]
    c = [-f / b0 for f in feedback]
    char = [Fraction(0)] * m + [Fraction(1)]
    adj = [None] * m  # adj(sI - A) = sum_k s**k adj[k]
    M = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        adj[m - k] = M
        AM = [[sum(A[i][t] * M[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
        char[m - k] = -sum(AM[i][i] for i in range(m)) / k
        M = [[AM[i][j] + (char[m - k] if i == j else 0) for j in range(m)] for i in range(m)]

    def c_adj_b(N, b):
        return sum(c[i] * N[i][j] * b[j] for i in range(m) for j in range(m))

    num_r = [feedback[0] / b0 * char[k] + (c_adj_b(adj[k], b_r) if k < m else 0) for k in range(m + 1)]
    num_y = [-c_adj_b(adj[k], observer) for k in range(m)]
    return num_r, num_y, char


def exact_stable(coeffs) -> bool:
    """The Routh verdict of lti.is_stable on ascending Fraction coefficients,
    in exact arithmetic: True iff every root has a negative real part."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    c = c[::-1]
    if c[0] < 0:
        c = [-v for v in c]
    upper, lower = c[0::2], c[1::2]
    while lower:
        if not lower[0] > 0:
            return False
        ratio = upper[0] / lower[0]
        upper, lower = lower, [u - ratio * v for u, v in zip(upper[1:], lower[1:] + [0])]
    return True


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with warnings as errors and this checkout's src first on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    criterion = getattr(item.function, "_criterion", None)
    if criterion:
        status = "PASS" if report.passed else "FAIL"
        print(f"ACCEPTANCE {criterion}: {status}")
