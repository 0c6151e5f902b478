"""Independent references for the benchmark's output checks.

Nothing here imports adrcpid: the closed forms are retyped from the paper,
the loops are assembled from the textbook observer and PI(D) laws, and the
step reference integrates each sample instant directly with one matrix
exponential instead of the package's sample-by-sample recursion.
"""

from __future__ import annotations

import math

import numpy as np

# Paper tolerances, fixed: coefficients, gang of four, printed digits.
COEFF_TOL = 1e-9
GANG_TOL = 1e-8
PRINTED_TOL = 1e-9  # `tune` prints 10 significant digits
# A 4000-step recursion accumulates a few thousand roundings of ~1e-16;
# 1e-8 relative to max(1, |y|) leaves three orders of headroom.
TRACE_TOL = 1e-8
CSV_CAP = 1e6


def design_gains(order: int, ts: float, g: float) -> dict[str, float]:
    """Bandwidth-rule ADRC gains: K_P = 4/T_s (order 1), omega_cl = 6/T_s (order 2)."""
    if order == 1:
        kp_ = 4.0 / ts
        return {"K_P": kp_, "l1": 2.0 * g * kp_, "l2": (g * kp_) ** 2}
    w = 6.0 / ts
    return {
        "omega_cl": w,
        "K_P": w**2,
        "K_D": 2.0 * w,
        "l1": 3.0 * g * w,
        "l2": 3.0 * (g * w) ** 2,
        "l3": (g * w) ** 3,
    }


def pid_params(order: int, ts: float, g: float, b0: float) -> dict[str, float]:
    """The paper's closed-form PI+F (order 1) or PID+F (order 2) parameters."""
    if order == 1:
        kp = (4.0 * g**2 + 8.0 * g) / (b0 * ts * (2.0 * g + 1.0))
        return {
            "kp": kp,
            "ki": 16.0 * g**2 / (b0 * ts**2 * (2.0 * g + 1.0)),
            "Tf": ts / (8.0 * g + 4.0),
            "b": 4.0 / (ts * b0 * kp),
        }
    q = 3.0 * g**2 + 6.0 * g + 1.0
    kp = (72.0 * g**3 + 108.0 * g**2) / (b0 * ts**2 * q)
    return {
        "kp": kp,
        "ki": 216.0 * g**3 / (b0 * ts**3 * q),
        "kd": (6.0 * g**3 + 36.0 * g**2 + 18.0 * g) / (b0 * ts * q),
        "Tf": ts / (6.0 * math.sqrt(q)),
        "d": (3.0 * g + 2.0) / (2.0 * math.sqrt(q)),
        "b": 36.0 / (b0 * ts**2 * kp),
    }


def tune_expected(order: int, ts: float, g: float, b0: float) -> dict[str, float]:
    return {**design_gains(order, ts, g), **pid_params(order, ts, g, b0)}


def rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def monic_residual(num_a, den_a, num_b, den_b) -> float:
    """Largest coefficient gap of two transfer functions, both made monic.

    Coefficients are ascending powers of s.  Relative per coefficient with
    an absolute floor of 1e-12, as the package documents its own comparison.
    """
    na, da = np.asarray(num_a, float) / den_a[-1], np.asarray(den_a, float) / den_a[-1]
    nb, db = np.asarray(num_b, float) / den_b[-1], np.asarray(den_b, float) / den_b[-1]
    worst = 0.0
    for a, b in ((na, nb), (da, db)):
        n = max(a.size, b.size)
        pa, pb = np.zeros(n), np.zeros(n)
        pa[: a.size], pb[: b.size] = a, b
        scale = np.maximum(np.maximum(np.abs(pa), np.abs(pb)), 1e-12)
        worst = max(worst, float(np.max(np.abs(pa - pb) / scale)))
    return worst


def magnitude(num, den, omega: np.ndarray) -> np.ndarray:
    s = 1j * omega
    return np.abs(np.polynomial.polynomial.polyval(s, num) / np.polynomial.polynomial.polyval(s, den))


def _plant(order: int, K: float, T: float, D: float):
    if order == 1:
        return np.array([[-1.0 / T]]), np.array([K / T]), np.array([1.0])
    A = np.array([[0.0, 1.0], [-1.0 / T**2, -2.0 * D / T]])
    return A, np.array([0.0, K / T**2]), np.array([1.0, 0.0])


def _controller(kind: str, order: int, ts: float, g: float, b0: float):
    """Textbook controller laws as (Ac, Bc_y, Bc_r, Bc_u, Cc, Dr), u = Dr r + Cc xc."""
    if kind == "adrc":
        k = design_gains(order, ts, g)
        n = order + 1
        L = np.array([k[f"l{i + 1}"] for i in range(n)])
        Ac = np.diag(np.ones(n - 1), 1)
        Ac[:, 0] -= L
        Bu = np.zeros(n)
        Bu[order - 1] = b0  # the input enters the highest derivative of y
        fb = [k["K_P"]] + ([k["K_D"]] if order == 2 else [])
        Cc = -np.array(fb + [1.0]) / b0
        return Ac, L, np.zeros(n), Bu, Cc, k["K_P"] / b0
    p = pid_params(order, ts, g, b0)
    if order == 1:
        # states [y_f, integral of (r - y_f)]
        Ac = np.array([[-1.0 / p["Tf"], 0.0], [-1.0, 0.0]])
        By = np.array([1.0 / p["Tf"], 0.0])
        Cc = np.array([-p["kp"], p["ki"]])
    else:
        # states [y_f, dy_f/dt, integral of (r - y_f)]
        Tf, d = p["Tf"], p["d"]
        Ac = np.array([[0.0, 1.0, 0.0], [-1.0 / Tf**2, -2.0 * d / Tf, 0.0], [-1.0, 0.0, 0.0]])
        By = np.array([0.0, 1.0 / Tf**2, 0.0])
        Cc = np.array([-p["kp"], -p["kd"], p["ki"]])
    Br = np.zeros(Ac.shape[0])
    Br[-1] = 1.0
    return Ac, By, Br, np.zeros(Ac.shape[0]), Cc, p["b"] * p["kp"]


def reference_step(kind: str, order: int, ts: float, g: float, b0: float,
                   K: float, T: float, D: float, t: np.ndarray) -> np.ndarray:
    """Plant output for a unit reference step, each instant from its own expm."""
    from scipy.linalg import expm

    Ap, Bp, Cp = _plant(order, K, T, D)
    Ac, By, Br, Bu, Cc, Dr = _controller(kind, order, ts, g, b0)
    np_, nc = Ap.shape[0], Ac.shape[0]
    n = np_ + nc
    aug = np.zeros((n + 1, n + 1))
    aug[:np_, :np_] = Ap
    aug[:np_, np_:n] = np.outer(Bp, Cc)
    aug[np_:n, :np_] = np.outer(By, Cp)
    aug[np_:n, np_:n] = Ac + np.outer(Bu, Cc)
    aug[:np_, n] = Bp * Dr
    aug[np_:n, n] = Br + Bu * Dr
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.array([Cp @ expm(aug * tk)[:np_, n] for tk in t])
    return np.clip(np.nan_to_num(y, nan=CSV_CAP, posinf=CSV_CAP, neginf=-CSV_CAP), -CSV_CAP, CSV_CAP)


def trace_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
