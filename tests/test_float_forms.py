"""The closed forms, design checks and loop blocks that the package computes in
plain floats give, bit for bit, what the numpy expressions and checks they
replaced gave.  Those expressions are kept here as the oracles, and every
comparison is of ``float.hex()``, so signed zeros and the positions of inf and
NaN count, over the package's tunings, powers of two alpha, negative b0 and K,
and past the float range.  The float forms must raise no warning there.

The exceptions are ADRC's closed-form channels, whose powers c^j / T_s^j
Python's ``**`` forms: numpy's array power can differ from it in the last bit,
and the reference column of ADRC's realization, which replaced no numpy form.
They are held to an exact rational reference within a derived bound, the
channels also to the numpy form for where inf, NaN and signed zeros fall.
"""

import dataclasses
import math
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from conftest import COLUMN_ROUNDINGS, TUNINGS, exact_reference_column, log_uniform, within_roundings
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adrcpid.adrc import AdrcDesign, TwoInputController, build_adrc
from adrcpid.analysis import PlantModel, closed_loop
from adrcpid.design import (
    SETTLING_CONSTANTS,
    PidParams,
    _equivalent_fields,
    _tuning,
    adrc_channels,
    equivalent_params,
)
from adrcpid.lti import _over, _poly, _tf
from adrcpid.pid_equiv import build_equivalent_controller


# unit roundoff, and the range of normal floats with an ulp of slack at the top
U = 2.0**-53
NORMAL = (Fraction(2) ** -1022, Fraction(2) ** 1023)


def adrc_channels_exact(design, alpha):
    """The coefficients of adrc_channels' (C_r num, C_y num, den) as (exact value, in range):
    the closed form in rational arithmetic from the float inputs, and whether every step that
    the float form rounds, or that could leave the float range, is normal: the polynomial c
    in g, T = T_s/alpha, T^j, w^j = c_n^j / T^j, c w^j and, in a numerator, b0 alpha^n and
    c w^j / (b0 alpha^n)."""
    n, c_n = design.order, SETTLING_CONSTANTS[design.order]
    g, T = Fraction(design.g), Fraction(design.T_s) / Fraction(alpha)
    b0 = Fraction(design.b0) * Fraction(alpha) ** n
    if n == 1:
        r, y, q = (g**2, 2 * g, 1), (g * g, (g + 2) * g), (2 * g + 1,)
    else:
        r, y = (g**3, 3 * g**2, 3 * g, 1), (g**3, (2 * g + 3) * g * g, ((g + 6) * g + 3) * g)
        q = ((3 * g + 6) * g + 1, 3 * g + 2)

    def coefficient(c, j, over_b0):
        w = Fraction(c_n) ** j / T**j
        steps = [Fraction(c), T, T**j, w, c * w] + ([b0, c * w / b0] if over_b0 else [])
        return steps[-1], all(NORMAL[0] <= abs(v) <= NORMAL[1] for v in steps)

    top = 2 * n + 1
    num_r, num_y = ([coefficient(c, top - i, True) for i, c in enumerate(cs)] for cs in (r, y))
    den = [(Fraction(0), True), *(coefficient(c, n - i, False) for i, c in enumerate(q)), (Fraction(1), True)]
    return num_r, num_y, den


def _kind(v: float) -> str:
    """Where a value falls for the placement checks: NaN, a signed inf or zero, or finite."""
    return "nan" if v != v else v.hex() if v in (0.0, math.inf, -math.inf) else "finite"


def adrc_channels_numpy(design, alpha=1.0):
    n, alpha = design.order, np.float64(alpha)
    with np.errstate(all="ignore"):
        g = np.float64(design.g)
        r = [math.comb(n + 1, k) * g ** (n + 1 - k) for k in range(n + 2)]
        if n == 1:
            y, q = (g * g, (g + 2.0) * g), (2.0 * g + 1.0,)
        else:
            y = (g**3, (2.0 * g + 3.0) * g * g, ((g + 6.0) * g + 3.0) * g)
            q = ((3.0 * g + 6.0) * g + 1.0, 3.0 * g + 2.0)
        top = 2 * n + 1
        w = float(SETTLING_CONSTANTS[n]) ** np.arange(top + 1.0) / (design.T_s / alpha) ** np.arange(top + 1.0)
        b0 = design.b0 * alpha**n
        c_r, c_y = (_poly((np.array(c) * w[top : top - len(c) : -1] / b0).tolist()) for c in (r, y))
        den = _poly([0.0, *(np.array(q) * w[n:0:-1]).tolist(), 1.0])
    return _tf(c_r, den), _tf(c_y, den)


def pid_channels_numpy(p, alpha=1.0):
    ki, kd, Tf = p.ki * alpha, p.kd / alpha, p.Tf / alpha
    filter_ = [1.0, Tf] if kd == 0.0 else [1.0, 2.0 * p.d * Tf, p.Tf**2 / alpha / alpha]
    c_y = _over(_poly([0.0, *filter_]))(_poly([ki, p.kp, kd]))
    c_r = _poly([ki, p.b * p.kp]) * _poly(list(c_y.den.coeffs[1:]))  # np.convolve
    return _tf(c_r, c_y.den), c_y


def reference_column_exact(design):
    """ADRC's reference column as (exact value, in range): whether the value and the steps of
    _reference_column that can leave the normal range are normal, T_s^2 and, at order 1, b0 T_s^2."""
    T_s, b0 = Fraction(design.T_s), Fraction(design.b0)
    steps = (T_s**2, b0 * T_s**2)[: 3 - design.order]
    return [
        (value, all(NORMAL[0] <= abs(v) <= NORMAL[1] for v in (*steps, value)))
        for value in exact_reference_column(design.order, design.T_s, design.g, design.b0)
    ]


def closed_loop_numpy(plant, c):
    P = plant.canonical_tf
    (k,), a = P.num.coeffs, P.den.coeffs
    cs = c.ss
    Ac, Bc, Cc, Dc = cs.A, cs.B, cs.C, cs.D
    n_p = plant.order
    n = n_p + cs.n_states
    last = n_p - 1
    Dc_r, Dc_y = float(Dc[0, 0]), float(Dc[0, 1])
    zero = 0.0 * Dc_y
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.empty((n, n))
        B = np.zeros((n, 3))
        C = np.zeros((2, n))
        A[last, :n_p] = [-a[0] + Dc_y * k, *(-x + zero for x in a[1:n_p])]
        A[last, n_p:] = 0.0 + Cc[0]
        B[last] = (Dc_r, 1.0, Dc_y)
        if n_p == 2:
            A[0, :2] = (0.0 + zero, 1.0 + zero)
            A[0, 2:] = 0.0 + 0.0 * Cc[0]
            A[2:, 1] = 0.0 + Bc[:, 1] * 0.0
            B[0] = (0.0 * Dc_r, 0.0, zero)
            C[1, 1] = zero
        A[n_p:, 0] = 0.0 + Bc[:, 1] * k
        A[n_p:, n_p:] = Ac
        B[n_p:, ::2] = Bc
        C[:, 0] = (k, k * Dc_y)
        C[1, n_p:] = Cc[0]
    D = np.array([[0.0, 0.0, 0.0], [Dc_r, 0.0, Dc_y]])
    return A, B, C, D


def tuning_comb(design):
    """(feedback, observer gains, PidParams) of a design by the binomial forms, or None where
    the check that they replaced refused the design, or where ADRC's reference column leaves
    the float range."""
    n, g = design.order, design.g
    try:
        w = design.omega_cl
        feedback = tuple(math.comb(n, i) * w ** (n - i) for i in range(n))
        observer = (math.comb(n + 1, 1) * g * w, *(math.comb(n + 1, i) * (g * w) ** i for i in range(2, n + 2)))
        p = PidParams(*_equivalent_fields(n, design.T_s, g, design.b0))
    except (ArithmeticError, ValueError):
        return None
    values = (*feedback, *observer, p.kp, p.ki, p.Tf, p.b) + ((p.kd, p.d) if n == 2 else ())
    column = exact_reference_column(n, design.T_s, g, design.b0)  # ADRC's, past the float range where exactly so
    finite = all(map(math.isfinite, values)) and all(abs(x) <= sys.float_info.max for x in column)
    return (feedback, observer, p) if finite and all(values) else None


def _unchecked(order, T_s, g, b0):
    """The inputs of a design, with its omega_cl, as tuning_comb reads them, not checked."""
    return SimpleNamespace(order=order, T_s=T_s, g=g, b0=b0, omega_cl=SETTLING_CONSTANTS[order] / T_s)


def params_refusal(kp, ki, kd, Tf, b, d):
    """The message of the per-field checks that PidParams made on every value, or None."""
    for name, value in (("kp", kp), ("ki", ki), ("kd", kd), ("b", b)):
        if not math.isfinite(value):
            return f"{name} must be finite, got {value!r}"
    for name, value in (("Tf", Tf), ("d", d)):
        if not 0 < value < math.inf:
            return f"{name} must be finite and > 0, got {value!r}"
    return None


def _hex(values):
    return [float(v).hex() for v in values]


def _tf_hex(tf):
    return _hex(tf.num.coeffs), _hex(tf.den.coeffs)


def _matrices_hex(matrices):
    return [(m.shape, m.dtype, _hex(m.ravel().tolist())) for m in matrices]


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def signed(magnitudes):
    return st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), magnitudes)


# tunings across and past the float range; AdrcDesign refuses many of them
WIDE_TUNINGS = st.one_of(
    TUNINGS,
    st.tuples(
        st.sampled_from((1, 2)),
        log_uniform(1e-300, 1e300),
        log_uniform(1e-3, 1e100),
        signed(log_uniform(1e-320, 1e300)),
    ),
)
POWERS_OF_TWO = st.one_of(st.just(1.0), st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)))
# PidParams values with zeros of either sign; PidParams refuses some of them
PARAM_VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), signed(log_uniform(1e-320, 1e300)))
PARAMS = st.builds(
    lambda kp, ki, kd, Tf, b, d: (kp, ki, kd, Tf, b, d),
    PARAM_VALUES,
    PARAM_VALUES,
    st.one_of(st.just(0.0), PARAM_VALUES),
    log_uniform(1e-320, 1e300),
    PARAM_VALUES,
    log_uniform(1e-300, 1e300),
)
PLANTS = st.tuples(
    st.sampled_from((1, 2)),
    st.one_of(st.sampled_from((0.0, -0.0)), signed(log_uniform(1e-300, 1e300))),
    log_uniform(1e-160, 1e160),
    log_uniform(1e-160, 1e160),
)


def _design(tuning):
    try:
        return AdrcDesign(*tuning)
    except ValueError:
        assume(False)


def _params(values):
    try:
        return PidParams(*values)
    except ValueError:
        assume(False)


def _plant(order, K, T, D):
    try:
        return PlantModel(order, K, T, D if order == 2 else None)
    except ValueError:
        assume(False)


class TestDesignChecks:
    @settings(max_examples=400)
    @given(WIDE_TUNINGS)
    @example((2, 1e5, 1.0, 1e-310))  # only 1/b0 of the ADRC observer form's C overflows: accepted
    @example((2, 1e-102, 1e-107, 1.0))  # only the last entry of ADRC's reference column overflows
    @example((1, 1e-150, 1.0, 1e-5))  # only -ki/Tf of the PI+F realization overflows
    @example((2, 0.0268, 42.9228, 1.0))  # (3 g) omega_cl differs from 3 (g omega_cl) in the last bit
    def test_accepts_exactly_what_the_binomial_check_accepted_with_its_bits(self, tuning):
        want, got = tuning_comb(_unchecked(*tuning)), _quietly(_tuning, *tuning)
        assert (want is None) == isinstance(got, str)
        if want is not None:
            assert [_hex(want[0]), _hex(want[1])] == [_hex(got[0]), _hex(got[1])]
            assert _hex(dataclasses.astuple(want[2])) == _hex(dataclasses.astuple(got[2]))

    @settings(max_examples=400)
    @given(st.one_of(PARAMS, st.tuples(*[st.sampled_from((0.0, 1.0, -math.inf, math.inf, math.nan))] * 6)))
    def test_params_refuse_with_the_per_field_messages(self, values):
        want = params_refusal(*values)
        try:
            PidParams(*values)
        except ValueError as exc:
            assert want is None or str(exc) == want
        else:
            assert want is None


class TestClosedForms:
    @settings(max_examples=400)
    @given(WIDE_TUNINGS, POWERS_OF_TWO)
    @example((2, 1e-100, 1.0, -1e-200), 2.0**-1000)  # b0 * alpha^2 underflows to -0.0
    @example((2, 1e100, 1.0, 1e200), 2.0**1000)  # alpha^2 overflows
    @example((1, 1e-3, 1e3, 1.0), 2.0**-1074)
    @example((1, 1.0, 5.616921, 1.0), 1.0)  # g**2 differs from g * g in the last bit
    @example((2, 1e10, 1.0, 4.981073788540406e-308), 2.0**-5)  # b0 alpha^2 is subnormal, rounded once
    def test_adrc_channels(self, tuning, alpha):
        design = _design(tuning)
        (c_r, c_y), (np_r, np_y) = _quietly(adrc_channels, design, alpha), adrc_channels_numpy(design, alpha)
        exact = adrc_channels_exact(design, alpha)
        # relative error of a coefficient whose steps are normal: c takes at most 4
        # roundings (g > 0, so its terms never cancel), T^j and w^j 3 (a libm pow is within
        # 1 ulp, two roundings' worth, and w^j divides once), c w^j and the division by
        # b0 alpha^n 1 each; T and b0 alpha^n are exact, alpha being a power of two
        bound = Fraction(9 * U / (1 - 9 * U))
        assert c_r.den is c_y.den
        for got, numpy_form, want in zip((c_r.num, c_y.num, c_y.den), (np_r.num, np_y.num, np_y.den), exact):
            assert len(got.coeffs) <= len(want)
            # trailing zeros are trimmed
            padded = zip(*(list(p.coeffs) + [0.0] * len(want) for p in (got, numpy_form)))
            for (c, np_c), (value, in_range) in zip(padded, want):
                if in_range:
                    assert abs(Fraction(c) - value) <= bound * abs(value), (c, float(value))
                else:
                    assert _kind(c) == _kind(np_c), (c, np_c)

    @settings(max_examples=400)
    @given(st.one_of(WIDE_TUNINGS.map(lambda t: ("design", t)), PARAMS.map(lambda v: ("values", v))), POWERS_OF_TWO)
    @example(("values", (0.0, 1.0, 0.0, 1e-300, 1.0, 1.0)), 2.0**30)  # b kp = 0, a monic filter with inf
    @example(("values", (1.0, -0.0, 0.0, 1.0, -0.0, 1.0)), 1.0)  # ki and b kp of -0.0
    @example(("values", (1.0, 2.0, 3.0, 1e-100, 0.5, 0.7)), 2.0**600)
    def test_pid_channels(self, source, alpha):
        kind, values = source
        p = equivalent_params(_design(values)) if kind == "design" else _params(values)
        got, want = _quietly(p._channels, alpha), pid_channels_numpy(p, alpha)
        assert [_tf_hex(tf) for tf in got] == [_tf_hex(tf) for tf in want]


class TestLoopBlocks:
    @settings(max_examples=300)
    @given(WIDE_TUNINGS)
    def test_build_adrc(self, tuning):
        # the PI(D)F's arrays but for B's r column, which is ADRC's closed form within its roundings
        # where every step of it is normal, and finite everywhere
        design = _design(tuning)
        ss = _quietly(build_adrc, design).ss
        pidf = build_equivalent_controller(equivalent_params(design)).ss
        assert _matrices_hex((ss.A, ss.B[:, 1], ss.C, ss.D)) == _matrices_hex((pidf.A, pidf.B[:, 1], pidf.C, pidf.D))
        exact = reference_column_exact(design)
        for x, (value, in_range), k in zip(ss.B[:, 0].tolist(), exact, COLUMN_ROUNDINGS[design.order]):
            assert within_roundings(x, value, k) if in_range else math.isfinite(x), (x, float(value))

    @settings(max_examples=400)
    @given(
        PLANTS,
        st.one_of(
            WIDE_TUNINGS.map(lambda t: ("adrc", t)),
            WIDE_TUNINGS.map(lambda t: ("equiv", t)),
            PARAMS.map(lambda v: ("values", v)),
            st.lists(st.sampled_from((0.0, -0.0, 1.0, -2.5, 1e300, -1e300, math.inf, -math.inf, math.nan)),
                     min_size=16, max_size=16).map(lambda v: ("entries", v)),
        ),
    )
    def test_closed_loop(self, plant, source):
        plant = _plant(*plant)
        kind, values = source
        if kind == "adrc":
            c = build_adrc(_design(values))
        elif kind == "equiv":
            c = build_equivalent_controller(equivalent_params(_design(values)))
        elif kind == "values":
            c = build_equivalent_controller(_params(values))
        else:  # any entries, inf and NaN too, in a 3-state controller
            A, B, C, D = (np.array(values[i:j]).reshape(shape) for i, j, shape in
                          ((0, 9, (3, 3)), (6, 12, (3, 2)), (12, 15, (1, 3)), (14, 16, (1, 2))))
            c = TwoInputController(tuple(m.tolist() for m in (A, B, C, D)), lambda alpha: None)
        got = _quietly(closed_loop, plant, c)
        assert _matrices_hex((got.A, got.B, got.C, got.D)) == _matrices_hex(closed_loop_numpy(plant, c))
