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


def observer_form_rows(design) -> tuple:
    """(A, B, C, D) of the ADRC controller in observer form, the n + 1 states of the extended
    observer with the control law substituted, in floats from the design's gains: inputs [r, y],
    output u.  Its entries span the powers of g*omega_cl up to (g*omega_cl)^(n+1), so the loops
    it closes are badly scaled; exact_observer_form is the same realization in exact arithmetic."""
    b0 = design.b0
    (K_P, *rest), observer = design_gains(design)
    if design.order == 1:
        l1, l2 = observer
        A, B, C = ((-l1 - K_P, 0.0), (-l2, 0.0)), ((K_P, l1), (0.0, l2)), (-K_P / b0, -1.0 / b0)
    else:
        (K_D,), (l1, l2, l3) = rest, observer
        A = (-l1, 1.0, 0.0), (-l2 - K_P, -K_D, 0.0), (-l3, 0.0, 0.0)
        B, C = ((0.0, l1), (K_P, l2), (0.0, l3)), (-K_P / b0, -K_D / b0, -1.0 / b0)
    return A, B, (C,), ((K_P / b0, 0.0),)


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


def exact_observer_form(order, T_s, g, b0) -> tuple[list, list, list, list]:
    """(A, B, C, D) of the ADRC controller in observer form, the n + 1 states of the extended
    observer with the control law u = (K_P r - K_P x1 [- K_D x2] - x_{n+1}) / b0 substituted,
    in exact rational arithmetic from the float inputs taken as Fractions: inputs [r, y],
    output u; C and D are one row each."""
    n, m = order, order + 1
    w = Fraction(SETTLING_CONSTANTS[n]) / Fraction(T_s)
    g, b0 = Fraction(g), Fraction(b0)
    feedback = [math.comb(n, i) * w ** (n - i) for i in range(n)] + [Fraction(1)]
    observer = [math.comb(n + 1, i) * (g * w) ** i for i in range(1, m + 1)]
    A = [[-observer[i] if j == 0 else Fraction(int(j == i + 1)) for j in range(m)] for i in range(m)]
    A[n - 1] = [a - f for a, f in zip(A[n - 1], feedback)]
    B = [[feedback[0] if i == n - 1 else Fraction(0), observer[i]] for i in range(m)]
    return A, B, [-f / b0 for f in feedback], [feedback[0] / b0, Fraction(0)]


def exact_pidf_rows(order, T_s, g, b0) -> tuple[list, list, list, list]:
    """(A, B, C, D) of design.equivalent_realization at the tuning's PI+F (order 1) or PID+F
    (order 2) parameters, in exact rational arithmetic from the float inputs taken as Fractions.
    The PID+F filter's 1/Tf^2 = 36 q / T_s^2 and 2 d / Tf = 6 (3g + 2) / T_s are rational,
    though Tf and d are not."""
    T_s, g, b0 = Fraction(T_s), Fraction(g), Fraction(b0)
    zero, one = Fraction(0), Fraction(1)
    if order == 1:
        kp = (4 * g**2 + 8 * g) / (b0 * T_s * (2 * g + 1))
        ki = 16 * g**2 / (b0 * T_s**2 * (2 * g + 1))
        over_tf = (8 * g + 4) / T_s
        A, B = [[zero, -ki * over_tf], [zero, -over_tf]], [[ki, zero], [zero, one]]
        return A, B, [one, -kp * over_tf], [4 / (b0 * T_s), zero]
    q = 3 * g**2 + 6 * g + 1
    kp = (72 * g**3 + 108 * g**2) / (b0 * T_s**2 * q)
    ki = 216 * g**3 / (b0 * T_s**3 * q)
    kd = (6 * g**3 + 36 * g**2 + 18 * g) / (b0 * T_s * q)
    over_tf2, damping = 36 * q / T_s**2, 6 * (3 * g + 2) / T_s
    A = [[zero, zero, one], [one, zero, zero], [-over_tf2, zero, -damping]]
    B = [[zero, zero], [one, zero], [zero, -over_tf2]]
    return A, B, [kp, ki, kd], [36 / (b0 * T_s**2), zero]


def exact_reference_column(order, T_s, g, b0) -> list[Fraction]:
    """B's r column of design.adrc_realization, exactly: the column that, in the states of
    exact_pidf_rows, gives ADRC's C_r."""
    T_s, g, b0 = Fraction(T_s), Fraction(g), Fraction(b0)
    if order == 1:
        return [8 * g / (T_s**2 * b0), 1 / (2 * g)]
    r = (3 * g**2 + 6 * g + 1) / (g + 1) ** 2
    return [2 * r / (g * T_s), r / 3, -12 * (g + 2) * r / (g * T_s**2)]


# roundings per entry of design._reference_column, every step normal: order 1, a product, T_s^2
# and a quotient for 8g / (b0 T_s^2), one for 0.5 / g; order 2, 8 for r = q / (g + 1)^2, whose
# terms are positive, then 2, 1 and 6 more
COLUMN_ROUNDINGS = {1: (3, 1), 2: (10, 9, 14)}


def within_roundings(x: float, exact: Fraction, k: int) -> bool:
    """Whether x is within the relative error of k roundings of exact, k u / (1 - k u), u = 2^-53."""
    u = Fraction(1, 2**53)
    return abs(Fraction(x) - exact) <= k * u / (1 - k * u) * abs(exact)


def exact_split(A, B, C, D) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(C_r num, C_y num, den) of a controller whose rows (A, B, C, D), inputs [r, y], C and D
    one row each, are exact, u = C_r r - C_y y: ascending, den monic, by Faddeev-LeVerrier
    and C adj(sI - A) B + D char."""
    m = len(A)
    char = [Fraction(0)] * m + [Fraction(1)]
    adj = [None] * m  # adj(sI - A) = sum_k s**k adj[k]
    M = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        adj[m - k] = M
        AM = [[sum(A[i][t] * M[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
        char[m - k] = -sum(AM[i][i] for i in range(m)) / k
        M = [[AM[i][j] + (char[m - k] if i == j else 0) for j in range(m)] for i in range(m)]

    def c_adj_b(k, column):
        return sum(C[i] * adj[k][i][j] * B[j][column] for i in range(m) for j in range(m)) if k < m else 0

    num_r = [D[0] * char[k] + c_adj_b(k, 0) for k in range(m + 1)]
    # C_y is strictly proper where D's y entry is 0
    num_y = [-(D[1] * char[k] + c_adj_b(k, 1)) for k in range(m + 1 if D[1] else m)]
    return num_r, num_y, char


def exact_adrc_split(order, T_s, g, b0) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(C_r num, C_y num, den) of the ADRC controller in exact rational arithmetic, split
    from its observer form (exact_observer_form)."""
    return exact_split(*exact_observer_form(order, T_s, g, b0))


def exact_step(rows, plant, t_end, n_steps, dps=80) -> list[float]:
    """y at the n_steps + 1 samples of the unit reference step from rest of the loop of a
    plant (a PlantModel) and a controller whose rows (A, B, C, D), inputs [r, y], are exact,
    computed at dps digits from the plant's K, T and D taken as Fractions: phi =
    exp([[A_cl, b], [0, 0]] h), h = t_end / n_steps, once, then z_{k+1} = phi z_k from
    z_0 = [0; 1], the samples that lti.step_response promises."""
    Ac, Bc, Cc, (d_r, d_y) = rows
    K, T = Fraction(plant.K), Fraction(plant.T)
    # the monic plant k / (s^n + a[n-1] s^(n-1) + ... + a[0]) in controllable canonical form
    k, a = (K / T, [1 / T]) if plant.order == 1 else (K / T**2, [1 / T**2, 2 * Fraction(plant.D) / T])
    n_p, m = plant.order, len(Ac)
    size = n_p + m + 1
    loop = [[Fraction(0)] * size for _ in range(size)]
    for j in range(n_p - 1):
        loop[j][j + 1] = Fraction(1)
    # u = C_c x_c + d_r r + d_y y enters the last plant row, y = k x_p[0] the controller rows
    loop[n_p - 1][:n_p] = [-x for x in a]
    loop[n_p - 1][0] += d_y * k
    loop[n_p - 1][n_p:] = [*Cc, d_r]
    for j in range(m):
        loop[n_p + j] = [Bc[j][1] * k, *[Fraction(0)] * (n_p - 1), *Ac[j], Bc[j][0]]
    with mpmath.workdps(dps):
        aug = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in loop])
        h = mpmath.mpf(t_end) / n_steps
        phi = mpmath.expm(aug * h)
        z = mpmath.zeros(size, 1)
        z[size - 1] = 1
        y = []
        for _ in range(n_steps + 1):
            y.append(float(z[0] * k.numerator / k.denominator))
            z = phi * z
        return y


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
