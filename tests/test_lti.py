import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.polynomial import polyfromroots

from adrcpid import adrc, analysis
from adrcpid.design import PidParams
from adrcpid.lti import (
    STEP_BLOCK,
    ImproperTransferFunctionError,
    Polynomial,
    RationalTransferFunction,
    StateSpaceModel,
    StepResponseTable,
    is_stable,
    log_grid,
    ss_to_tf,
    step_response,
    tf_minreal,
    tf_residual,
    tf_to_ss,
    _expm,
)


def tf(num, den):
    return RationalTransferFunction.from_coeffs(num, den)


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
        assert sorted(p.roots().real) == pytest.approx([-2.0, -1.0])

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())

    def test_roots_found_once_and_read_only(self):
        p = Polynomial((6.0, 5.0, 1.0))
        r = p.roots()
        assert p.roots() is r
        with pytest.raises(ValueError):
            r[0] = 0.0


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


class TestPolynomialMatchesNumpy:
    """+, *, evaluation and roots give the bits of numpy.polynomial."""

    @settings(max_examples=100)
    @given(COEFFS, COEFFS, st.complex_numbers(max_magnitude=1e3))
    def test_bitwise_equal_to_numpy_polynomial(self, a, b, s):
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        for got, want in ((p + q, npoly.polyadd), (p * q, npoly.polymul)):
            assert _same_bits(got.coeffs, Polynomial(tuple(want(p.coeffs, q.coeffs))).coeffs)
        grid = np.array([s, 0.5 * s, 1j * abs(s)])
        for x in (s, grid, grid.real, [s, -s]):
            got, want = p(x), npoly.polyval(x, p.coeffs)
            assert type(got) is type(want) and _same_bits(got, want)
        if p.degree > 0:
            assert _same_bits(p.roots(), np.atleast_1d(npoly.polyroots(p.coeffs)))


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
        # kp + ki/s with kp=1, ki=2: the reference channel at b = 1
        out = PidParams(kp=1.0, ki=2.0, kd=0.0, Tf=0.1, b=1.0).reference_tf()
        assert tf_residual(out, tf((2, 1), (0, 1))) <= 1e-9

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

    def test_canonicalizing_twice_is_not_a_no_op(self):
        # the new lead is 49 * (1/49) = 1 - 2**-53, so a second pass rescales again
        once = tf((1.0,), (1.0, 49.0)).canonicalized()
        assert once.den.leading == 1.0 - 2.0**-53
        twice = once.canonicalized()
        assert twice.den.leading == 1.0
        assert twice.num.coeffs != once.num.coeffs

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
        assert out.den.roots() == pytest.approx([0.0], abs=1e-9)
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
        # oracle: solve (jw I - A) x = B directly at random frequencies
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            B = rng.normal(size=(n, 1))
            C = rng.normal(size=(1, n))
            D = rng.normal(size=(1, 1))
            m = StateSpaceModel(A, B, C, D)
            h = ss_to_tf(m)
            for w in rng.uniform(0.01, 100.0, size=20):
                direct = (C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D)[0, 0]
                assert abs(h(1j * w) - direct) <= 1e-8 * abs(direct)

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
        with pytest.raises(ImproperTransferFunctionError):
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
        omega = log_grid(1e-2, 1e3, 120)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            m = StateSpaceModel(A, rng.normal(size=(n, 1)), rng.normal(size=(1, n)), [[0.0]])
            via_ss = np.array([(m.C @ np.linalg.solve(1j * w * np.eye(n) - m.A, m.B))[0, 0] for w in omega])
            via_tf = ss_to_tf(m)(1j * omega)
            assert np.all(np.abs(via_ss - via_tf) <= 1e-8 * np.abs(via_ss))


class TestStepResponse:
    def test_first_order_lag_matches_analytic(self):
        m = tf_to_ss(tf((1,), (1, 1)))
        out = step_response(m, 0, t_end=5.0, n_steps=500)
        expected = 1.0 - np.exp(-out.t)
        assert np.max(np.abs(out.columns["y"] - expected)) < 1e-10

    def test_lag_value_at_one(self):
        m = tf_to_ss(tf((1,), (1, 1)))
        out = step_response(m, 0, t_end=1.0, n_steps=100)
        assert out.columns["y"][-1] == pytest.approx(1 - np.exp(-1), abs=1e-12)

    def test_integrator_ramp(self):
        m = tf_to_ss(tf((1,), (0, 1)))
        out = step_response(m, 0, t_end=2.0, n_steps=200)
        assert out.columns["y"][-1] == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(out.columns["y"] - out.t)) < 1e-10

    def test_needs_two_steps(self):
        m = tf_to_ss(tf((1,), (1, 1)))
        with pytest.raises(ValueError):
            step_response(m, 0, t_end=1.0, n_steps=1)

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


def _adrc_loop(order, ts, g, b0):
    tune = adrc.tune_first_order if order == 1 else adrc.tune_second_order
    ctrl = adrc.build_adrc(tune(ts, g, b0))
    plant = analysis.PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
    return analysis.closed_loop(plant, ctrl)


class TestExpm:
    def test_diagonal(self):
        d = np.array([-3.0, 0.5, 2.0, -1e-3, 0.0])
        assert np.allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0.0)

    def test_nilpotent_jordan_block_is_a_finite_series(self):
        # N^5 = 0, so exp(a N) = sum_{k<5} (a N)^k / k! exactly
        a = 3.0
        N = np.diag(np.ones(4), k=1)
        expected = sum(np.linalg.matrix_power(a * N, k) / math.factorial(k) for k in range(5))
        assert np.allclose(_expm(a * N), expected, rtol=1e-14, atol=0.0)

    def test_rotation(self):
        theta = 2.5
        got = _expm(np.array([[0.0, -theta], [theta, 0.0]]))
        c, s = math.cos(theta), math.sin(theta)
        assert np.allclose(got, [[c, -s], [s, c]], rtol=0.0, atol=1e-14)

    # the first loop gives ||M||_1 = 2.2e14; unbalanced, [6/6] Pade is 1.8e-2 off
    @pytest.mark.parametrize(
        "order, ts, g, b0",
        [(2, 1.52e-3, 619.0, 7.75), (1, 1e-3, 1e3, 1e-3), (2, 1e3, 1.0, -1e3), (2, 1.0, 10.0, 1.0)],
    )
    def test_matches_high_precision_reference_on_ill_scaled_loops(self, order, ts, g, b0):
        mpmath = pytest.importorskip("mpmath")
        # the matrix step_response exponentiates for a 300-sample trace over 3 T_s
        M = _augmented(_adrc_loop(order, ts, g, b0)) * (3.0 * ts / 300)
        with mpmath.workdps(60):
            ref = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)
        assert np.max(np.abs(_expm(M) - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_off_diagonal_ratio_past_the_float_range(self):
        # r / c = 1e400 overflows; exp([[0, a], [b, 0]]) with a*b = 1 is closed form
        got = _expm(np.array([[0.0, 1e200], [1e-200, 0.0]]))
        expected = [[math.cosh(1.0), 1e200 * math.sinh(1.0)], [1e-200 * math.sinh(1.0), math.cosh(1.0)]]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)


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
    @pytest.mark.parametrize("n_steps", [2, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 4000])
    def test_matches_per_sample_recurrence(self, n_steps):
        loop = _adrc_loop(2, 1.0, 10.0, 1.0)
        assert loop.output_labels == ("y", "u")
        out = step_response(loop, 0, t_end=3.0, n_steps=n_steps)
        ref = _per_sample_step(loop, 0, 3.0, n_steps)
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


class TestPolesStability:
    def test_simple_lag(self):
        a = tf((1,), (1, 1))
        assert a.poles() == pytest.approx([-1.0])
        assert is_stable(tf_to_ss(a))

    def test_unstable(self):
        a = tf((1,), (-1, 1))
        assert a.poles() == pytest.approx([1.0])
        assert not is_stable(tf_to_ss(a))

    def test_double_pole(self):
        a = tf((1,), (1, 2, 1))
        assert sorted(a.poles().real) == pytest.approx([-1.0, -1.0], abs=1e-7)
        assert is_stable(tf_to_ss(a))

    def test_constant_denominator_has_no_poles(self):
        a = tf((2.0,), (1.0,))
        assert a.poles().size == 0
        # its realization has no states, and a model without states is stable
        m = tf_to_ss(a)
        assert m.n_states == 0
        assert is_stable(m)

    def test_random_second_order_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = 10.0 ** rng.uniform(-1, 2, size=2)
            p = Polynomial(tuple(polyfromroots([-a, -b])))
            got = sorted(tf((1,), p.coeffs).poles().real)
            expect = sorted([-a, -b])
            scale = max(1.0, a, b)
            assert got == pytest.approx(expect, abs=1e-9 * scale)

    def test_ss_poles_are_eigenvalues(self):
        m = StateSpaceModel([[-2.0, 0.0], [0.0, -3.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        assert sorted(np.linalg.eigvals(m.A).real) == pytest.approx([-3.0, -2.0])
        assert sorted(ss_to_tf(m).poles().real) == pytest.approx([-3.0, -2.0])
        assert is_stable(m)
        assert not is_stable(StateSpaceModel([[-2.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]]))
