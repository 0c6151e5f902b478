import math

import numpy as np
import pytest
from conftest import TUNINGS
from hypothesis import given, settings

from adrcpid.adrc import (
    AdrcDesign,
    build_adrc,
    extract_cr_cy,
    observer_matrix,
    tune_first_order,
    tune_second_order,
)
from adrcpid.lti import (
    Polynomial,
    RationalTransferFunction,
    freq_response,
    poly_residual,
    ss_to_tf,
    tf_neg,
    tf_residual,
)

TS_GRID = (0.5, 1.0, 2.0)
G_GRID = (2.0, 5.0, 10.0, 20.0)
B0_GRID = (0.5, 1.0, 3.0)


class TestTuneFirstOrder:
    def test_nominal_gains(self):
        d = tune_first_order(1, 10, 1)
        assert d.K_P == pytest.approx(4.0, rel=1e-14)
        assert d.l1 == pytest.approx(80.0, rel=1e-14)
        assert d.l2 == pytest.approx(1600.0, rel=1e-14)

    def test_settling_time_scaling(self):
        d = tune_first_order(2, 10, 1)
        assert (d.K_P, d.l1, d.l2) == pytest.approx((2.0, 40.0, 400.0), rel=1e-14)

    def test_b0_does_not_affect_observer_gains(self):
        a = tune_first_order(1, 10, 1)
        b = tune_first_order(1, 10, 5)
        assert (a.K_P, a.l1, a.l2) == (b.K_P, b.l1, b.l2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(T_s=0), dict(T_s=-1), dict(g=0), dict(g=-2), dict(b0=0),
            dict(T_s=math.nan), dict(T_s=math.inf), dict(g=math.nan), dict(g=math.inf),
            dict(b0=math.nan), dict(b0=math.inf), dict(b0=-math.inf),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        full = dict(T_s=1.0, g=10.0, b0=1.0)
        full.update(kwargs)
        with pytest.raises(ValueError):
            AdrcDesign(1, **full)


class TestTuneSecondOrder:
    def test_nominal_gains(self):
        d = tune_second_order(1, 10, 1)
        assert d.omega_cl == pytest.approx(6.0)
        assert d.K_P == pytest.approx(36.0)
        assert d.K_D == pytest.approx(12.0)
        assert d.l1 == pytest.approx(180.0)
        assert d.l2 == pytest.approx(10800.0)
        assert d.l3 == pytest.approx(216000.0)

    def test_settling_time_scaling(self):
        d = tune_second_order(2, 10, 1)
        assert (d.omega_cl, d.K_P, d.K_D) == pytest.approx((3.0, 9.0, 6.0))

    def test_unit_multiplier(self):
        d = tune_second_order(1, 1, 1)
        assert (d.l1, d.l2, d.l3) == pytest.approx((18.0, 108.0, 216.0))

    def test_invalid_inputs_rejected(self):
        for kwargs in (dict(g=-1.0), dict(T_s=math.nan), dict(T_s=math.inf), dict(g=math.nan), dict(b0=math.inf)):
            with pytest.raises(ValueError):
                AdrcDesign(2, **{"T_s": 1.0, "g": 10.0, "b0": 1.0, **kwargs})


class TestFirstOrderController:
    def test_reference_channel_printed_coefficients(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        c_r, _ = extract_cr_cy(c)
        expected = RationalTransferFunction.from_coeffs((6400, 320, 4), (0, 84, 1))
        assert tf_residual(c_r, expected) < 1e-9

    def test_measurement_channel_is_filtered_pi(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        _, c_y = extract_cr_cy(c)
        kp, ki, tf_ = 480 / 21, 1600 / 21, 1 / 84
        expected = RationalTransferFunction.from_coeffs((ki, kp), (0, 1, tf_))
        assert tf_residual(c_y, expected) < 1e-9

    def test_reference_channel_integral_gain(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        c_r, _ = extract_cr_cy(c)
        s = 1e-8j
        assert abs(s * c_r(s)) == pytest.approx(1600 / 21, rel=1e-6)

    def test_measurement_channel_integral_gain(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        _, c_y = extract_cr_cy(c)
        omega = 1e-8
        table = freq_response(c_y, [omega])
        assert abs(table.columns["H"][0]) * omega == pytest.approx(1600 / 21, rel=1e-6)

    def test_reference_channel_closed_form_over_grid(self):
        for ts in TS_GRID:
            for g in G_GRID:
                for b0 in B0_GRID:
                    d = tune_first_order(ts, g, b0)
                    c_r, _ = extract_cr_cy(build_adrc(d))
                    expected = RationalTransferFunction.from_coeffs(
                        (d.K_P * d.l2 / b0, d.K_P * d.l1 / b0, d.K_P / b0),
                        (0.0, d.l1 + d.K_P, 1.0),
                    )
                    assert tf_residual(c_r, expected) < 1e-9

    def test_b0_scaling(self):
        base_r, base_y = extract_cr_cy(build_adrc(tune_first_order(1, 10, 1)))
        for c in (0.5, 3.0):
            scaled_r, scaled_y = extract_cr_cy(build_adrc(tune_first_order(1, 10, c)))
            s = 1j * 2.7
            assert scaled_r(s) == pytest.approx(base_r(s) / c, rel=1e-12)
            assert scaled_y(s) == pytest.approx(base_y(s) / c, rel=1e-12)


class TestSecondOrderController:
    def test_measurement_channel_structure(self):
        d = tune_second_order(1, 10, 1)
        c = build_adrc(d)
        _, c_y = extract_cr_cy(c)
        n2 = d.K_P * d.l1 + d.K_D * d.l2 + d.l3
        n1 = d.K_P * d.l2 + d.K_D * d.l3
        n0 = d.K_P * d.l3
        q1 = d.l1 + d.K_D
        q0 = d.l1 * d.K_D + d.l2 + d.K_P
        expected = RationalTransferFunction.from_coeffs((n0, n1, n2), (0.0, q0, q1, 1.0))
        assert tf_residual(c_y, expected) < 1e-9
        assert q1 == pytest.approx(192.0)
        assert q0 == pytest.approx(12996.0)

    def test_measurement_denominator_roots(self):
        c = build_adrc(tune_second_order(1, 10, 1))
        _, c_y = extract_cr_cy(c)
        roots = np.sort_complex(c_y.poles())
        quad = np.roots([1.0, 192.0, 12996.0])
        expected = np.sort_complex(np.concatenate([quad, [0.0]]))
        assert np.allclose(roots, expected, atol=1e-8)

    def test_filter_constants_from_denominator(self):
        # Tf = 1/sqrt(q0), d = q1/(2 sqrt(q0))
        q0, q1 = 12996.0, 192.0
        assert 1 / np.sqrt(q0) == pytest.approx(1 / 114, rel=1e-12)
        assert q1 / (2 * np.sqrt(q0)) == pytest.approx(16 / 19, rel=1e-12)

    def test_high_frequency_reference_gain(self):
        c = build_adrc(tune_second_order(1, 10, 1))
        c_r, _ = extract_cr_cy(c)
        assert abs(c_r(1e8j)) == pytest.approx(36.0, rel=1e-6)

    def test_symbolic_elimination_oracle(self):
        sympy = pytest.importorskip("sympy")
        sp = sympy
        K_P, K_D, l1, l2, l3, b0 = sp.symbols("K_P K_D l1 l2 l3 b0", positive=True)
        s = sp.symbols("s")
        A = sp.Matrix([[-l1, 1, 0], [-(l2 + K_P), -K_D, 0], [-l3, 0, 0]])
        B_r = sp.Matrix([0, K_P, 0])
        B_y = sp.Matrix([l1, l2, l3])
        C = -sp.Matrix([[K_P, K_D, 1]]) / b0
        resolvent = (s * sp.eye(3) - A).inv()

        q1 = l1 + K_D
        q0 = l1 * K_D + l2 + K_P
        den = s * (s**2 + q1 * s + q0)

        y_channel = sp.simplify((C * resolvent * B_y)[0])
        n2 = K_P * l1 + K_D * l2 + l3
        n1 = K_P * l2 + K_D * l3
        n0 = K_P * l3
        expected_y = -(n2 * s**2 + n1 * s + n0) / (b0 * den)
        assert sp.simplify(y_channel - expected_y) == 0

        r_channel = sp.simplify((C * resolvent * B_r)[0] + K_P / b0)
        expected_r = K_P * (s**3 + l1 * s**2 + l2 * s + l3) / (b0 * den)
        assert sp.simplify(r_channel - expected_r) == 0

    def test_b0_scaling(self):
        base_r, base_y = extract_cr_cy(build_adrc(tune_second_order(1, 10, 1)))
        scaled_r, scaled_y = extract_cr_cy(build_adrc(tune_second_order(1, 10, 3)))
        s = 1j * 5.0
        assert scaled_r(s) == pytest.approx(base_r(s) / 3, rel=1e-12)
        assert scaled_y(s) == pytest.approx(base_y(s) / 3, rel=1e-12)


class TestObserverPoles:
    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    def test_first_order_double_pole(self, ts, g):
        d = tune_first_order(ts, g, 1)
        m = observer_matrix(d)
        pole = g * d.K_P
        char = np.poly(m)[::-1]  # ascending
        expected = Polynomial.from_roots([-pole, -pole])
        assert poly_residual(Polynomial(tuple(char)), expected) < 1e-9
        eigs = np.linalg.eigvals(m)
        assert np.allclose(eigs.real, -pole, rtol=1e-6)
        assert np.allclose(eigs.imag, 0.0, atol=1e-6 * pole)

    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    def test_second_order_triple_pole(self, ts, g):
        d = tune_second_order(ts, g, 1)
        m = observer_matrix(d)
        pole = g * d.omega_cl
        char = np.poly(m)[::-1]
        expected = Polynomial.from_roots([-pole, -pole, -pole])
        assert poly_residual(Polynomial(tuple(char)), expected) < 1e-9
        # a defective triple eigenvalue carries an O(eps^(1/3)) perturbation
        # under QR iteration, so the per-eigenvalue tolerance is looser
        eigs = np.linalg.eigvals(m)
        assert np.allclose(eigs, -pole, rtol=1e-4, atol=1e-4 * pole)
        assert np.mean(eigs).real == pytest.approx(-pole, rel=1e-9)


class TestTwoInputController:
    def test_requires_two_inputs_one_output(self):
        from adrcpid.adrc import TwoInputController
        from adrcpid.lti import StateSpaceModel

        with pytest.raises(ValueError):
            TwoInputController(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))

    @pytest.mark.parametrize("design", [tune_first_order(1, 10, 1), tune_second_order(0.3, 25, -4)])
    def test_channel_split_made_once_and_equal_to_direct_split(self, design):
        c = build_adrc(design)
        c_r, c_y = extract_cr_cy(c)
        again = extract_cr_cy(c)
        assert again[0] is c_r and again[1] is c_y
        direct_r = ss_to_tf(c.ss, input=0, output=0).canonicalized()
        direct_y = tf_neg(ss_to_tf(c.ss, input=1, output=0)).canonicalized()
        for got, want in ((c_r, direct_r), (c_y, direct_y)):
            for a, b in ((got.num, want.num), (got.den, want.den)):
                assert np.array(a.coeffs).tobytes() == np.array(b.coeffs).tobytes()


def _reference_matrices(order, T_s, g, b0):
    """The per-order controllers as written out by hand before the generic builder."""
    if order == 1:
        K_P = 4.0 / T_s
        l1, l2 = 2.0 * g * K_P, (g * K_P) ** 2
        A = np.array([[-(l1 + K_P), 0.0], [-l2, 0.0]])
        B = np.array([[K_P, l1], [0.0, l2]])
        C = np.array([[-K_P / b0, -1.0 / b0]])
        return A, B, C, np.array([[K_P / b0, 0.0]])
    w = 6.0 / T_s
    K_P, K_D = w**2, 2.0 * w
    l1, l2, l3 = 3.0 * g * w, 3.0 * (g * w) ** 2, (g * w) ** 3
    A = np.array([[-l1, 1.0, 0.0], [-(l2 + K_P), -K_D, 0.0], [-l3, 0.0, 0.0]])
    B = np.array([[0.0, l1], [K_P, l2], [0.0, l3]])
    C = np.array([[-K_P / b0, -K_D / b0, -1.0 / b0]])
    return A, B, C, np.array([[K_P / b0, 0.0]])


class TestGenericDesign:
    @settings(max_examples=300)
    @given(TUNINGS)
    def test_builder_matches_per_order_matrices_bit_for_bit(self, tuning):
        order, T_s, g, b0 = tuning
        ss = build_adrc(AdrcDesign(order, T_s, g, b0)).ss
        for got, want in zip((ss.A, ss.B, ss.C, ss.D), _reference_matrices(order, T_s, g, b0)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=300)
    @given(TUNINGS)
    def test_observer_pole_at_g_omega_cl(self, tuning):
        order, T_s, g, b0 = tuning
        d = AdrcDesign(order, T_s, g, b0)
        m = observer_matrix(d)
        pole = g * d.omega_cl
        char = np.poly(m)
        binomial = [math.comb(order + 1, i) * pole**i for i in range(order + 2)]
        assert np.allclose(char, binomial, rtol=1e-9, atol=0.0)
        assert np.mean(np.linalg.eigvals(m)).real == pytest.approx(-pole, rel=1e-9)

    def test_order_outside_one_and_two_rejected(self):
        with pytest.raises(ValueError):
            AdrcDesign(3, 1.0, 10.0)
