import builtins
import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from conftest import log_uniform, observer_form_rows, tf, tf_to_ss
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.polynomial import polyfromroots, polyroots

from adrcpid import adrc, analysis
from adrcpid.design import PidParams
from adrcpid.lti import (
    STEP_BLOCK,
    StateSpaceModel,
    StepResponseTable,
    ss_to_tf,
    step_response,
    tf_minreal,
    _balance,
    _expm,
)
from adrcpid.tf import (
    Polynomial,
    RationalTransferFunction,
    is_stable,
    log_grid,
    tf_residual,
    _expm_rows,
    _step_trace,
)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


LAG = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]], output_labels=("y",))  # 1/(s + 1)


class TestPolynomial:
    def test_trims_trailing_noise(self):
        # only exact zeros are trimmed: a tiny nonzero coefficient keeps its degree
        p = Polynomial((1.0, 2.0, 1e-15))
        assert p.coeffs == (1.0, 2.0, 1e-15)
        assert p.degree == 2
        assert Polynomial((1.0, 2.0, 0.0)).coeffs == (1.0, 2.0)
        assert Polynomial((1.0, 2.0, -0.0, 0.0)).coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        assert Polynomial((0.0, 0.0)).coeffs == (0.0,)
        assert Polynomial((0.0,)).is_zero

    def test_keeps_small_leading_relative_to_max(self):
        p = Polynomial((1.0, 1e-6))
        assert p.degree == 1

    def test_arithmetic(self):
        a = Polynomial((1.0, 1.0))
        b = Polynomial((2.0, 1.0))
        assert (a * b).coeffs == (2.0, 3.0, 1.0)
        assert (a + b).coeffs == (3.0, 2.0)

    def test_roots_roundtrip(self):
        p = Polynomial(tuple(3.0 * polyfromroots([-1.0, -2.0])))
        assert p.coeffs == pytest.approx((6.0, 9.0, 3.0))
        assert sorted(polyroots(p.coeffs).real) == pytest.approx([-2.0, -1.0])

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# coefficients of either sign over many decades, with exact and signed zeros
COEFFS = st.lists(
    st.one_of(
        st.floats(-1e3, 1e3),
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 6.0)),
        st.sampled_from((0.0, -0.0)),
    ),
    min_size=1,
    max_size=7,
)


# unit roundoff and the smallest subnormal, the absolute error of a result that underflows
U = 2.0**-53
ETA = 2.0**-1074


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the bound on the relative error of k roundings (Higham, ASNA 3.1)."""
    return k * U / (1 - k * U)


def exact_value(coeffs, s) -> tuple[Fraction, Fraction]:
    """(Re, Im) of the polynomial with float coefficients at the float point s, exactly."""
    x, y = Fraction(s.real), Fraction(s.imag)
    re, im = Fraction(0), Fraction(0)
    for c in reversed(coeffs):  # Horner in exact arithmetic
        re, im = Fraction(c) + re * x - im * y, re * y + im * x
    return re, im


# coefficients and points whose products and sums are exact in floats, with the
# values that carry signed zeros, inf and NaN through them
SPECIAL = st.lists(st.sampled_from((0.0, -0.0, 1.0, -2.5, 0.5, math.inf, -math.inf, math.nan)), min_size=1, max_size=5)
SPECIAL_POINTS = st.sampled_from((0j, -0j, 1j, -1.5 + 0j, 2.0 - 1.0j, complex(0.0, -0.0), complex(math.inf, 0.0)))


class TestPolynomialArithmetic:
    """+ gives the bits of numpy's polyadd.  * and evaluation are plain float sums, each
    coefficient or value within the standard forward-error bound of its sum (Higham, ASNA
    3.1 and 5.1) of the exact result; where every product and sum is exact, they give the
    bits of numpy's convolve and polyval, signed zeros, inf and NaN in their places."""

    @settings(max_examples=100)
    @given(COEFFS, COEFFS)
    def test_sum_bitwise_equal_to_numpy_polyadd(self, a, b):
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        assert _same_bits((p + q).coeffs, Polynomial(tuple(npoly.polyadd(p.coeffs, q.coeffs))).coeffs)

    @settings(max_examples=200)
    @given(COEFFS, COEFFS)
    def test_product_within_the_bound_of_its_sums(self, a, b):
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        n = len(p.coeffs) + len(q.coeffs) - 1
        got = list((p * q).coeffs) + [0.0] * n  # trailing zeros were trimmed
        for k in range(n):
            terms = [Fraction(x) * Fraction(q.coeffs[k - i]) for i, x in enumerate(p.coeffs) if 0 <= k - i < len(q.coeffs)]
            # coefficient k sums its m = len(terms) products from 0.0, one rounding per
            # product and per addition: |error| <= gamma_m sum |a_i b_j|, plus one ETA
            # per operation that underflows
            m = len(terms)
            bound = Fraction(gamma(m)) * sum(map(abs, terms)) + 2 * m * Fraction(ETA)
            assert abs(Fraction(got[k]) - sum(terms)) <= bound, k

    @settings(max_examples=200)
    @given(COEFFS, st.complex_numbers(max_magnitude=1e3))
    def test_value_within_the_bound_of_horner(self, a, s):
        p = Polynomial(tuple(a))
        n = p.degree
        for x in (s, complex(s.real, 0.0), s.real):
            got = complex(p(x))
            re, im = exact_value(p.coeffs, x)
            # step k of Horner's rule, c + v * x, is one complex product, off by at most
            # sqrt(2) gamma_2 of |v x| (Higham, ASNA lemma 3.5), and one complex sum, off by
            # at most u of its value: the value is off by at most
            # ((1 + sqrt(2) gamma_2)^n (1 + u)^n - 1) sum |c_i| |x|^i.  The bound is
            # formed in floats, to a relative 1e-12 that its last factor covers.
            theta = (1 + math.sqrt(2) * gamma(2)) ** n * (1 + U) ** n - 1
            size = sum(abs(c) * abs(x) ** i for i, c in enumerate(p.coeffs))
            underflow = 4 * ETA * sum((1 + abs(x)) ** i for i in range(n + 1))
            bound = Fraction((theta * size + underflow) * (1 + 1e-12))
            assert (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2 <= bound**2

    @settings(max_examples=200)
    @given(SPECIAL, SPECIAL, SPECIAL_POINTS)
    def test_signed_zeros_inf_and_nan_where_numpy_puts_them(self, a, b, s):
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        with np.errstate(all="ignore"):
            want_product = Polynomial(tuple(npoly.polymul(p.coeffs, q.coeffs))).coeffs
            want_values = [npoly.polyval(x, p.coeffs) for x in (s, s.real)]
        assert _hex((p * q).coeffs) == _hex(want_product)
        for x, want in zip((s, s.real), want_values):
            got = p(x)
            assert type(got) is type(x) and _hex((got.real, got.imag)) == _hex((want.real, want.imag))

    def test_a_sequence_of_points_gives_the_list_of_values(self):
        p = Polynomial((1.0, -2.0, 0.5))
        grid = np.array([1j, 0.5 + 2j, -3.0])
        assert p(grid) == p(grid.tolist()) == [p(x) for x in grid.tolist()]
        assert p((2.0, -1.0)) == [p(2.0), p(-1.0)] and type(p(2.0)) is float


def _hex(values):
    return [float(v).hex() for v in values]


def _product(a, b):
    """a*b as gang_of_seven forms its members: numerators and denominators multiplied out."""
    return RationalTransferFunction(a.num * b.num, a.den * b.den)


class TestTfArithmetic:
    def test_multiply_monomials(self):
        a = tf((1,), (0, 1))  # 1/s
        out = _product(a, a)
        assert out.num.coeffs == (1.0,)
        assert out.den.coeffs == (0.0, 0.0, 1.0)

    def test_multiply_does_not_cancel(self):
        a = tf((1, 1), (2, 1))  # (s+1)/(s+2)
        b = tf((2, 1), (1, 1))  # (s+2)/(s+1)
        out = _product(a, b)
        assert out.num.degree == 2
        assert out.den.degree == 2
        assert out.num.coeffs == pytest.approx(out.den.coeffs)

    def test_multiply_by_scalar_constant(self):
        a = tf((4, 2), (1, 1))  # (2s+4)/(s+1)
        out = RationalTransferFunction(a.num.scaled(0.5), a.den)
        assert tf_residual(out, tf((2, 1), (1, 1))) <= 1e-9

    def test_add_pi_form(self):
        # kp + ki/s with kp=1, ki=2: the reference channel at b = 1, over s*(0.1 s + 1)
        out = PidParams(kp=1.0, ki=2.0, kd=0.0, Tf=0.1, b=1.0).reference_tf()
        assert tf_residual(out, tf((2, 1.2, 0.1), (0, 1, 0.1))) <= 1e-9

    def test_add_zero_identity(self):
        a = tf((1, 2), (3, 4, 5))
        out = RationalTransferFunction(a.num + Polynomial((0.0,)), a.den)
        assert out.num.coeffs == a.num.coeffs
        assert tf_residual(out, a) <= 1e-9

    def test_add_like_denominators_raw_then_minreal(self):
        # 1/(s+1) + 1/(s+1), cross-multiplied: (2s + 2)/(s^2 + 2s + 1)
        raw = tf((2, 2), (1, 2, 1))
        reduced = tf_minreal(raw, 1e-9)
        assert tf_residual(reduced, tf((2,), (1, 1))) <= 1e-9

    @given(
        st.lists(FINITE, min_size=1, max_size=4),
        st.lists(FINITE, max_size=3),
        FINITE.filter(bool),
    )
    @example([1.0], [1.0], 49.0)  # 49 * (1/49) = 1 - 2**-53: a lead scaled by its inverse is not always 1
    @example([1.0], [], 5e-324)  # 1/lead overflows
    def test_canonicalizing_gives_an_exact_lead_and_is_idempotent(self, num, den_rest, lead):
        once = tf(tuple(num), (*den_rest, lead)).canonicalized()
        assert once.den.leading == 1.0
        assert once.canonicalized() is once

    def test_canonical_scaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            num = rng.uniform(-2, 2, size=rng.integers(1, 4))
            den = rng.uniform(-2, 2, size=rng.integers(2, 5))
            den[-1] = rng.uniform(0.5, 2.0)
            a = tf(tuple(num), tuple(den))
            c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            scaled = tf(tuple(c * num), tuple(c * den))
            assert tf_residual(a, scaled) < 1e-12


class TestMinreal:
    def test_exact_common_root(self):
        a = tf((1, 2, 1), (2, 3, 1))  # (s+1)^2 / ((s+1)(s+2))
        out = tf_minreal(a, 1e-9)
        assert tf_residual(out, tf((1, 1), (2, 1))) <= 1e-9

    def test_coprime_unchanged(self):
        a = tf((1, 1), (2, 1))
        out = tf_minreal(a, 1e-9)
        assert tf_residual(out, a) <= 1e-9

    def test_near_common_root_within_tol(self):
        # (s + 1.0000000001) s / ((s+1) s^2) -> approximately 1/s
        num = Polynomial(tuple(polyfromroots([-1.0000000001, 0.0])))
        den = Polynomial(tuple(polyfromroots([-1.0, 0.0, 0.0])))
        out = tf_minreal(RationalTransferFunction(num, den), 1e-6)
        # root-finder oracle on the reduced polynomials
        assert out.num.degree == 0
        assert out.den.degree == 1
        assert polyroots(out.den.coeffs) == pytest.approx([0.0], abs=1e-9)
        assert abs(out(1j) - 1.0 / 1j) < 1e-8

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            tf_minreal(tf((1,), (1, 1)), -1.0)


class TestSsToTf:
    def test_integrator(self):
        m = StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        assert tf_residual(ss_to_tf(m), tf((1,), (0, 1))) <= 1e-9

    def test_first_order_lag(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert tf_residual(ss_to_tf(m), tf((1,), (1, 1))) <= 1e-9

    def test_feedthrough_only(self):
        m = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.5]])
        out = ss_to_tf(m)
        assert tf_residual(out, tf((2.5,), (1.0,))) <= 1e-9

    def test_matches_direct_solve_oracle(self):
        # oracle: solve (jw I - A) X = B directly at random frequencies, every channel
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, inputs, outputs = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            B = rng.normal(size=(n, inputs))
            C = rng.normal(size=(outputs, n))
            D = rng.normal(size=(outputs, inputs))
            m = StateSpaceModel(A, B, C, D)
            channels = {(o, i): ss_to_tf(m, i, o) for o in range(outputs) for i in range(inputs)}
            for w in rng.uniform(0.01, 100.0, size=20):
                direct = C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D
                for (o, i), h in channels.items():
                    assert abs(h(1j * w) - direct[o, i]) <= 1e-8 * abs(direct[o, i]), (o, i)

    def test_bad_channel_index(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(IndexError):
            ss_to_tf(m, input=1)

    @pytest.mark.parametrize(
        "A, B, C, D",
        [
            # trace(A @ N_0) = 2e400: the characteristic polynomial overflows, and with d = 0
            ([[1e200, 0.0], [0.0, 1e200]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]),
            ([[math.inf]], [[1.0]], [[1.0]], [[0.0]]),
            # a finite resolvent, but c N_0 b = 1e600
            ([[-1.0]], [[1e300]], [[1e300]], [[0.0]]),
            ([[-1.0]], [[1.0]], [[1.0]], [[math.nan]]),
        ],
    )
    def test_overflow_refused_without_a_warning(self, A, B, C, D):
        # the suite turns warnings into errors, so a warning fails here too
        m = StateSpaceModel(A, B, C, D)
        with pytest.raises(ValueError, match="transfer function at this tuning is not representable: its coefficients"):
            ss_to_tf(m)


class TestTfToSs:
    """The canonical realization that the plant-block test takes as its oracle."""

    def test_first_order_lag(self):
        m = tf_to_ss(tf((1,), (1, 1)))
        np.testing.assert_allclose(m.A, [[-1.0]])
        np.testing.assert_allclose(m.B, [[1.0]])
        np.testing.assert_allclose(m.C, [[1.0]])
        np.testing.assert_allclose(m.D, [[0.0]])

    def test_unit_gain_unit_time_plant(self):
        # K/(Ts+1) with K = T = 1 is the same first-order lag
        m = tf_to_ss(tf((1,), (1, 1)))
        np.testing.assert_allclose(m.A, [[-1.0]])

    def test_biproper_splits_feedthrough(self):
        m = tf_to_ss(tf((2, 1), (1, 1)))  # (s+2)/(s+1) = 1 + 1/(s+1)
        np.testing.assert_allclose(m.D, [[1.0]])
        assert tf_residual(ss_to_tf(m), tf((2, 1), (1, 1))) <= 1e-9

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            tf_to_ss(tf((1, 2, 3), (1, 1)))

    def test_roundtrip_random_proper(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            den = rng.uniform(-2, 2, size=n + 1)
            den[-1] = rng.uniform(0.5, 2.0)
            num = rng.uniform(-2, 2, size=int(rng.integers(1, n + 2)))
            a = tf(tuple(num), tuple(den))
            back = ss_to_tf(tf_to_ss(a))
            assert tf_residual(a, back) < 1e-9


class TestLogGrid:
    def test_within_two_ulp_of_numpy_logspace(self):
        # both raise 10 to the same exponents; libm's pow and numpy's may differ by an ulp each
        for lo, hi, n in ((1e-2, 1e4, 600), (1e-2, 1e3, 300), (3e-7, 2.5e5, 7)):
            got, want = np.array(log_grid(lo, hi, n)), np.logspace(np.log10(lo), np.log10(hi), n)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_last_point_past_the_float_range_refused(self):
        with pytest.raises(ValueError, match="its last point overflows"):
            log_grid(1e-2, 1.7976931348623157e308, 3)


class TestFreqResponse:
    def test_integrator_at_one(self):
        assert tf((1,), (0, 1))(1j) == pytest.approx(-1j)

    def test_lag_at_one(self):
        h = tf((1,), (1, 1))(1j)
        assert h == pytest.approx(1 / (1 + 1j))
        assert abs(h) == pytest.approx(1 / np.sqrt(2))

    def test_ss_matches_tf_route(self):
        # two independent routes: direct solve vs polynomial evaluation
        rng = np.random.default_rng(11)
        omega = np.array(log_grid(1e-2, 1e3, 120))
        for _ in range(10):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            m = StateSpaceModel(A, rng.normal(size=(n, 1)), rng.normal(size=(1, n)), [[0.0]])
            via_ss = np.array([(m.C @ np.linalg.solve(1j * w * np.eye(n) - m.A, m.B))[0, 0] for w in omega])
            via_tf = ss_to_tf(m)(1j * omega)
            assert np.all(np.abs(via_ss - via_tf) <= 1e-8 * np.abs(via_ss))


    def test_value_in_range_where_horner_in_s_overflows(self):
        # num(s) and den(s) leave the float range at |s| = 1e10; their ratio does not
        h = tf((1e300, 3e300), (1e-10, 1e-5, 1.0))
        s = np.array([1j, 1e10j, 1e12j])
        want = [1e300 * ((1 + 3 * x) / (1e-10 + 1e-5 * x + x * x)) for x in s.tolist()]
        got = h(s)
        assert got[0] == h.num(1j) / h.den(1j)  # in range: the plain ratio, bit for bit
        assert got == pytest.approx(want, rel=1e-14)
        assert h(1e10j) == got[1]

    def test_value_in_range_where_the_quotient_overflows(self):
        # at s = 2j, num(s) and den(s) are about -1.76e308 + 3.5e307j, in range, and
        # their complex quotient is not; their ratio is 1 - 1/den(s)
        h = tf((0.0, 1.75e307, 4.4e307), (1.0, 1.75e307, 4.4e307))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite([h.num(2j), h.den(2j)]).all()
            assert not np.isfinite(h.num(2j) / h.den(2j))
        got = h(np.array([0.5j, 2j]))
        assert got[0] == h.num(0.5j) / h.den(0.5j)  # in range: the plain ratio, bit for bit
        assert got[1] == pytest.approx(1.0, rel=1e-15)

    def test_value_past_the_float_range_is_not_finite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(tf((1e300, 1e300, 1e300), (1.0, 1.0))(1e10j))


class TestStepResponse:
    def test_first_order_lag_matches_analytic(self):
        m = LAG
        out = step_response(m, 0, t_end=5.0, n_steps=500)
        expected = 1.0 - np.exp(-out.t)
        assert np.max(np.abs(out.columns["y"] - expected)) < 1e-10

    def test_lag_value_at_one(self):
        m = LAG
        out = step_response(m, 0, t_end=1.0, n_steps=100)
        assert out.columns["y"][-1] == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_integrator_ramp(self):
        m = StateSpaceModel([[0.0]], [[1.0]], [[1.0]], [[0.0]], output_labels=("y",))  # 1/s
        out = step_response(m, 0, t_end=2.0, n_steps=200)
        assert out.columns["y"][-1] == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(out.columns["y"] - out.t)) < 1e-10

    def test_needs_two_steps(self):
        m = LAG
        with pytest.raises(ValueError):
            step_response(m, 0, t_end=1.0, n_steps=1)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_t_end_must_be_finite_and_positive(self, t_end):
        with pytest.raises(ValueError, match=r"t_end must be finite and > 0, got"):
            step_response(LAG, 0, t_end=t_end, n_steps=10)

    # the last two steps are subnormal: 5e-311 gives a uniform enough grid,
    # 3.3e-315 does not
    @settings(max_examples=150)
    @given(st.one_of(log_uniform(1e-3, 1e6), log_uniform(1e-318, 1e-308)), st.integers(2, 5000))
    @example(1e-310, 2)
    @example(1e-312, 300)
    def test_grid_has_the_bits_of_linspace(self, t_end, n_steps):
        want = np.linspace(0.0, t_end, n_steps + 1)
        try:
            got = step_response(LAG, 0, t_end=t_end, n_steps=n_steps).t
        except ValueError:
            with pytest.raises(ValueError, match="uniformly spaced"):
                StepResponseTable(want, {})
        else:
            assert _same_bits(got, want)

    def test_table_is_read_only(self):
        out = step_response(LAG, 0, t_end=1.0, n_steps=10)
        assert not out.t.flags.writeable and not out.columns["y"].flags.writeable

    def test_grid_of_subnormal_steps_checked_for_uniformity(self):
        # linspace rounds these instants to multiples of 5e-324, far off 1e-9 of the step
        with pytest.raises(ValueError, match="uniformly spaced"):
            step_response(LAG, 0, t_end=1e-312, n_steps=300)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            StepResponseTable(np.array([0.5, 1.0]), {})
        with pytest.raises(ValueError):
            StepResponseTable(np.array([0.0, 1.0, 3.0]), {})


def _augmented(m, input=0):
    n = m.n_states
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = m.A
    aug[:n, n] = m.B[:, input]
    return aug


def _adrc_loop(order, ts, g, b0, K=1.0, T=1.0, D=1.0):
    """The loop of a plant and the ADRC controller in observer form, whose entries span the
    powers of g*omega_cl: badly scaled loops for the exponential and the step response."""
    design = adrc.AdrcDesign(order, ts, g, b0)
    ctrl = adrc.TwoInputController(observer_form_rows(design), partial(adrc.adrc_channels, design))
    plant = analysis.PlantModel(order, K, T, D if order == 2 else None)
    return analysis.closed_loop(plant, ctrl)


# (order, T_s, g, b0); the first loop gives ||M||_1 = 2.2e14 for a 300-sample
# trace over 3 T_s, and unbalanced, [6/6] Pade is 1.8e-2 off its exponential
ILL_SCALED_LOOPS = [(2, 1.52e-3, 619.0, 7.75), (1, 1e-3, 1e3, 1e-3), (2, 1e3, 1.0, -1e3), (2, 1.0, 10.0, 1.0)]


class TestExpm:
    expm = staticmethod(_expm)

    def test_diagonal(self):
        d = np.array([-3.0, 0.5, 2.0, -1e-3, 0.0])
        assert np.allclose(self.expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0.0)

    def test_nilpotent_jordan_block_is_a_finite_series(self):
        # N^5 = 0, so exp(a N) = sum_{k<5} (a N)^k / k! exactly
        a = 3.0
        N = np.diag(np.ones(4), k=1)
        expected = sum(np.linalg.matrix_power(a * N, k) / math.factorial(k) for k in range(5))
        assert np.allclose(self.expm(a * N), expected, rtol=1e-14, atol=0.0)

    def test_rotation(self):
        theta = 2.5
        got = self.expm(np.array([[0.0, -theta], [theta, 0.0]]))
        c, s = math.cos(theta), math.sin(theta)
        assert np.allclose(got, [[c, -s], [s, c]], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("order, ts, g, b0", ILL_SCALED_LOOPS)
    def test_matches_high_precision_reference_on_ill_scaled_loops(self, order, ts, g, b0):
        mpmath = pytest.importorskip("mpmath")
        # the matrix step_response exponentiates for a 300-sample trace over 3 T_s
        M = _augmented(_adrc_loop(order, ts, g, b0)) * (3.0 * ts / 300)
        with mpmath.workdps(60):
            ref = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)
        assert np.max(np.abs(self.expm(M) - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_off_diagonal_ratio_past_the_float_range(self):
        # r / c = 1e400 overflows; exp([[0, a], [b, 0]]) with a*b = 1 is closed form
        got = self.expm(np.array([[0.0, 1e200], [1e-200, 0.0]]))
        expected = [[math.cosh(1.0), 1e200 * math.sinh(1.0)], [1e-200 * math.sinh(1.0), math.cosh(1.0)]]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)


class TestPlainExpm(TestExpm):
    """The same cases for the exponential of float rows that verify's settling trace uses."""

    expm = staticmethod(lambda M: np.array(_expm_rows(M.tolist())))


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, as the builtin sum() of floats is from Python 3.12 on."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        compensation += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + compensation


class TestBalance:
    # left to right, row 0 sums to 32 + 2**-47: each 2**-48 is half an ulp
    # of 32 and rounds away.  Compensated, it sums to 32 + 2**-46.  Column 0
    # sums to 1, so 0.5 log2(r / c) rounds to 2.5 or to just above it, and
    # the scale of state 0 to 2**2 or 2**3.
    ROW_SUM_TIE = np.zeros((5, 5))
    ROW_SUM_TIE[0, 1:] = (32.0, 2.0**-48, 2.0**-48, 2.0**-47)
    ROW_SUM_TIE[1, 0] = 1.0

    def test_scales_do_not_depend_on_the_builtin_sum(self, monkeypatch):
        row = self.ROW_SUM_TIE[0].tolist()
        plain = 0.0
        for v in row:
            plain += v
        assert (plain, _compensated_sum(row)) == (32.0 + 2.0**-47, 32.0 + 2.0**-46)
        assert _balance(self.ROW_SUM_TIE).tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert _balance(self.ROW_SUM_TIE).tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("K", [1e-320, -1e-320, 1e-310, -1e-310])
    def test_scales_stay_finite_where_a_column_is_subnormal(self, K):
        # the plant column of the ADRC loop holds K/T and nothing larger; left
        # unbounded, the scale of the plant state grows past the float range
        loop = analysis.closed_loop(analysis.PlantModel(1, K, 1.0), adrc.build_adrc(adrc.AdrcDesign(1, 1.0, 10.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = _balance(_augmented(loop) * 0.0025)
            y = step_response(loop, 0, t_end=10.0, n_steps=4000).columns["y"]
        assert np.all(np.abs(np.log2(d)) <= 1000), d
        assert np.all(np.isfinite(y)) and abs(y[-1]) < 1e-300


class TestUnrepresentableStep:
    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 1e308])
    def test_refused_before_discretizing(self, entry):
        # 1e308 is finite, but the entries' sum overflows (the sample time is 1)
        m = StateSpaceModel([[-1.0, entry], [0.0, -entry]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(ValueError, match="step response at this tuning is not representable"):
            step_response(m, 0, t_end=10.0, n_steps=10)

    def test_sample_time_overflow_refused(self):
        m = StateSpaceModel([[-1e300]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="not representable"):
            step_response(m, 0, t_end=1e300, n_steps=10)

    # the cases above, and an exponential over one sample time that overflows (e^1000)
    @pytest.mark.parametrize(
        "A, t_end",
        [*(([[-1.0, entry], [0.0, -entry]], 10.0) for entry in (math.inf, -math.inf, math.nan, 1e308)),
         ([[-1e300]], 1e300), ([[1e3]], 10.0)],
    )
    def test_plain_trace_is_nan_at_every_sample_where_step_response_refuses(self, A, t_end):
        n = len(A)
        rows = (A, [[1.0]] * n, [[1.0] + [0.0] * (n - 1)], [[0.0]])
        with pytest.raises(ValueError, match="step response at this tuning is not representable"):
            step_response(StateSpaceModel(*rows), 0, t_end=t_end, n_steps=10)
        y = _step_trace(rows, t_end, 10)
        assert len(y) == 11 and all(map(math.isnan, y))


def _per_sample_step(m, input, t_end, n_steps):
    """The plain recurrence x[k+1] = Ad x[k] + bd, one sample at a time."""
    n = m.n_states
    phi = _expm(_augmented(m, input) * (t_end / n_steps))
    Ad, bd = phi[:n, :n], phi[:n, n]
    samples = np.empty((n_steps + 1, m.n_outputs))
    x = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            samples[k] = m.C @ x + m.D[:, input]
            x = Ad @ x + bd
    return samples


class TestBlockedStepResponse:
    @pytest.mark.parametrize(
        "n_steps, tuning",
        [pytest.param(n, (2, 1.0, 10.0, 1.0), id=str(n)) for n in (2, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 4000)]
        + [pytest.param(300, t, id="300-" + "-".join(map(str, t))) for t in ILL_SCALED_LOOPS],
    )
    def test_matches_per_sample_recurrence(self, n_steps, tuning):
        loop = _adrc_loop(*tuning)
        assert loop.output_labels == ("y", "u")
        t_end = 3.0 * tuning[1]
        out = step_response(loop, 0, t_end=t_end, n_steps=n_steps)
        ref = _per_sample_step(loop, 0, t_end, n_steps)
        for i, name in enumerate(loop.output_labels):
            y = out.columns[name]
            assert y.shape == (n_steps + 1,)
            # rounding in either recurrence scales with the largest value the
            # trace passes through (u starts at 36 here), not with each sample
            assert np.max(np.abs(y - ref[:, i])) <= 1e-12 * max(1.0, np.max(np.abs(ref[:, i])))

    def test_diverging_model_returns_and_agrees_while_finite(self):
        # poles 0.5 +- 3j overflow near t = 1420; x1 swings ten times wider
        # than x2, so right after x1 first overflows there are samples where
        # both are finite again.  The first output watches a stable,
        # decoupled third state.
        A = [[0.5, 30.0, 0.0], [-0.3, 0.5, 0.0], [0.0, 0.0, -1.0]]
        m = StateSpaceModel(A, [[0.0], [1.0], [1.0]], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [[0.0], [0.0]])
        out = step_response(m, 0, t_end=2000.0, n_steps=4000)
        ref = _per_sample_step(m, 0, 2000.0, 4000)
        for i, name in enumerate(m.output_labels):
            y, r = out.columns[name], ref[:, i]
            finite = np.isfinite(r)
            assert 2800 < finite.sum() < 4001
            # NaN from the first overflowed state on, as in the recurrence
            assert np.array_equal(np.isfinite(y), finite)
            # the trace oscillates through zero, so compare against its envelope
            envelope = np.maximum.accumulate(np.abs(r[finite]))
            assert np.all(np.abs(y[finite] - r[finite]) <= 1e-12 * np.maximum(1.0, envelope))


    # diverging design points of order 2, 300 samples over 3 T_s, and the
    # number of finite y samples of the recurrence: the first two used to end
    # one sample off it; in the third a power of phi overflows a sample before
    # the state it advances, and in the fourth the recurrence overflows in the
    # step to a state that the doubling finds finite
    @pytest.mark.parametrize(
        "tuning, plant, n_finite",
        [
            ((2, 6.114569389729376, 766.0288957723631, -0.0024349890633044756),
             (-0.7787368924125116, 1.7067703223168706, 1.0710596906468963), 12),
            ((2, 0.4067142425958793, 60.71025349229091, 0.026144712220196535),
             (0.529045852911303, 0.704301464666525, 1.0950584602731717), 255),
            ((2, 5.175520621548562, 595.2138624136236, 0.014091378997922299),
             (0.6266999354441735, 0.7063705230664895, 1.1792477548882325), 17),
            ((2, 2.4759170871543255, 399.2250973402266, -0.02556996692292239),
             (-1.3580015678061081, 1.826105788434668, 1.1488698592975795), 125),
        ],
    )
    def test_nan_tail_starts_where_the_recurrence_overflows(self, tuning, plant, n_finite):
        loop = _adrc_loop(*tuning, *plant)
        t_end = 3.0 * tuning[1]
        out = step_response(loop, 0, t_end=t_end, n_steps=300)
        ref = _per_sample_step(loop, 0, t_end, 300)
        assert np.isfinite(ref[:, 0]).sum() == n_finite
        for i, name in enumerate(loop.output_labels):
            y, r = out.columns[name], ref[:, i]
            finite = np.isfinite(r)
            assert np.array_equal(np.isfinite(y), finite)
            envelope = np.maximum.accumulate(np.abs(r[finite]))
            assert np.all(np.abs(y[finite] - r[finite]) <= 1e-12 * np.maximum(1.0, envelope))

    def test_mode_the_input_never_reaches_does_not_overflow_the_trace(self):
        # x1 grows by e^25 a sample but starts at 0 and gets no input, so the
        # recurrence keeps it at exactly 0; phi^32 already overflows
        m = StateSpaceModel([[50.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], np.eye(2), [[0.0], [0.0]])
        out = step_response(m, 0, t_end=100.0, n_steps=200)
        assert np.array_equal(out.columns["y1"], np.zeros(201))
        assert np.max(np.abs(out.columns["y2"] - (1.0 - np.exp(-out.t)))) < 1e-12


class TestPolesStability:
    """is_stable is the Routh test of a characteristic polynomial."""

    def test_simple_lag(self):
        a = tf((1,), (1, 1))
        assert polyroots(a.den.coeffs) == pytest.approx([-1.0])
        assert is_stable(a.den)

    def test_unstable(self):
        a = tf((1,), (-1, 1))
        assert polyroots(a.den.coeffs) == pytest.approx([1.0])
        assert not is_stable(a.den)
        assert not is_stable(a.den.scaled(-1.0))

    def test_double_pole(self):
        a = tf((1,), (1, 2, 1))
        assert sorted(polyroots(a.den.coeffs).real) == pytest.approx([-1.0, -1.0], abs=1e-7)
        assert is_stable(a.den)

    def test_constant_denominator_has_no_poles(self):
        a = tf((2.0,), (1.0,))
        assert polyroots(a.den.coeffs).size == 0
        # a nonzero constant has no roots and is stable; the zero polynomial is not
        assert is_stable(a.den) and is_stable(Polynomial((-3.0,)))
        assert not is_stable(Polynomial((0.0,)))

    def test_random_second_order_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = 10.0 ** rng.uniform(-1, 2, size=2)
            p = Polynomial(tuple(polyfromroots([-a, -b])))
            got = sorted(polyroots(p.coeffs).real)
            expect = sorted([-a, -b])
            scale = max(1.0, a, b)
            assert got == pytest.approx(expect, abs=1e-9 * scale)
            assert is_stable(p) and not is_stable(Polynomial(tuple(polyfromroots([-a, b]))))

    def test_ss_poles_are_eigenvalues(self):
        m = StateSpaceModel([[-2.0, 0.0], [0.0, -3.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert sorted(np.linalg.eigvals(m.A).real) == pytest.approx([-3.0, -2.0])
        assert sorted(polyroots(ss_to_tf(m).den.coeffs).real) == pytest.approx([-3.0, -2.0])
        assert is_stable(ss_to_tf(m).den)
        # an integrator pole: the constant term of the denominator is an exact zero
        m = StateSpaceModel([[-2.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert not is_stable(ss_to_tf(m).den)

    @pytest.mark.parametrize(
        "roots, stable",
        [
            ([-1.0, -2.0 + 3.0j, -2.0 - 3.0j], True),
            ([-1.0, 0.1 + 3.0j, 0.1 - 3.0j], False),
            ([-1.0, 3.0j, -3.0j], False),  # on the imaginary axis: a zero entry
            ([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0], True),
            ([-1.0, -2.0, -3.0, -4.0, -5.0, 6.0], False),
            ([-1e-3, -1.0, -1e3, -1e6 + 1e6j, -1e6 - 1e6j], True),
        ],
    )
    def test_routh_test_on_known_roots(self, roots, stable):
        p = Polynomial(tuple(np.real(polyfromroots(roots))))
        assert is_stable(p) is stable
        assert is_stable(p.scaled(-2.5)) is stable

    @pytest.mark.parametrize("coeffs", [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (math.inf, 2.0, 1.0)])
    def test_coefficients_past_the_float_range_are_not_stable(self, coeffs):
        assert not is_stable(Polynomial(coeffs))
