import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    COLUMN_ROUNDINGS,
    TUNINGS,
    design_gains,
    exact_adrc_split,
    exact_pidf_rows,
    exact_reference_column,
    exact_split,
    log_uniform,
    tf,
    within_roundings,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots, polyroots

from adrcpid import tf as tf_module
from adrcpid.adrc import (
    AdrcDesign,
    build_adrc,
    extract_cr_cy,
    tune_first_order,
    tune_second_order,
)
from adrcpid.design import (
    SETTLING_CONSTANTS,
    PidParams,
    _equivalent_fields,
    adrc_channels,
    equivalent_params,
    equivalent_realization,
)
from adrcpid.tf import (
    Polynomial,
    poly_residual,
    tf_residual,
)

TS_GRID = (0.5, 1.0, 2.0)
G_GRID = (2.0, 5.0, 10.0, 20.0)
B0_GRID = (0.5, 1.0, 3.0)
# the reason of a refusal whose gains or PI(D) parameters leave the float range
GAINS = "the gains or equivalent PI(D) parameters"


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

    def test_has_no_second_order_gains(self):
        d = tune_first_order(1.0, 10.0)
        assert not hasattr(d, "K_D") and getattr(d, "l3", None) is None
        for name in ("K_D", "l3"):
            with pytest.raises(AttributeError, match=f"^a first-order design has no {name}$"):
                getattr(d, name)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(T_s=0), dict(T_s=-1), dict(g=0), dict(g=-2), dict(b0=0),
            dict(T_s=math.nan), dict(T_s=math.inf), dict(g=math.nan), dict(g=math.inf),
            dict(b0=math.nan), dict(b0=math.inf), dict(b0=-math.inf),
            dict(T_s=1e-300), dict(T_s=1e300), dict(g=1e300), dict(g=1e-300), dict(b0=1e-320),
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
        for kwargs in (
            dict(g=-1.0), dict(T_s=math.nan), dict(T_s=math.inf), dict(g=math.nan), dict(b0=math.inf),
            dict(T_s=1e-300), dict(T_s=1e300), dict(g=1e300), dict(b0=1e-320),
        ):
            with pytest.raises(ValueError):
                AdrcDesign(2, **{"T_s": 1.0, "g": 10.0, "b0": 1.0, **kwargs})


class TestFirstOrderController:
    def test_reference_channel_printed_coefficients(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        c_r, _ = extract_cr_cy(c)
        expected = tf((6400, 320, 4), (0, 84, 1))
        assert tf_residual(c_r, expected) < 1e-9

    def test_measurement_channel_is_filtered_pi(self):
        c = build_adrc(tune_first_order(1, 10, 1))
        _, c_y = extract_cr_cy(c)
        kp, ki, tf_ = 480 / 21, 1600 / 21, 1 / 84
        expected = tf((ki, kp), (0, 1, tf_))
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
        assert abs(c_y(1j * omega)) * omega == pytest.approx(1600 / 21, rel=1e-6)

    def test_reference_channel_closed_form_over_grid(self):
        for ts in TS_GRID:
            for g in G_GRID:
                for b0 in B0_GRID:
                    d = tune_first_order(ts, g, b0)
                    c_r, _ = extract_cr_cy(build_adrc(d))
                    expected = tf(
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
        expected = tf((n0, n1, n2), (0.0, q0, q1, 1.0))
        assert tf_residual(c_y, expected) < 1e-9
        assert q1 == pytest.approx(192.0)
        assert q0 == pytest.approx(12996.0)

    def test_measurement_denominator_roots(self):
        c = build_adrc(tune_second_order(1, 10, 1))
        _, c_y = extract_cr_cy(c)
        roots = np.sort_complex(polyroots(c_y.den.coeffs))
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


def observer_matrix(design):
    """Dynamics matrix of the pure observer (before feedback substitution): the observer
    gains fill the first column and the integrator chain the superdiagonal."""
    m = np.eye(design.order + 1, k=1)
    m[:, 0] = np.negative(design_gains(design)[1])
    return m


class TestObserverPoles:
    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    def test_first_order_double_pole(self, ts, g):
        d = tune_first_order(ts, g, 1)
        m = observer_matrix(d)
        pole = g * d.K_P
        char = np.poly(m)[::-1]  # ascending
        expected = Polynomial(tuple(polyfromroots([-pole, -pole])))
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
        expected = Polynomial(tuple(polyfromroots([-pole, -pole, -pole])))
        assert poly_residual(Polynomial(tuple(char)), expected) < 1e-9
        # a defective triple eigenvalue carries an O(eps^(1/3)) perturbation
        # under QR iteration, so the per-eigenvalue tolerance is looser
        eigs = np.linalg.eigvals(m)
        assert np.allclose(eigs, -pole, rtol=1e-4, atol=1e-4 * pole)
        assert np.mean(eigs).real == pytest.approx(-pole, rel=1e-9)


class TestTwoInputController:
    def test_requires_two_inputs_one_output(self):
        from adrcpid.adrc import TwoInputController

        with pytest.raises(ValueError):
            TwoInputController(([[-1.0]], [[1.0]], [[1.0]], [[0.0]]), adrc_channels)

    @pytest.mark.parametrize("design", [tune_first_order(1, 10, 1), tune_second_order(0.3, 25, -4)])
    def test_channels_made_once_from_the_closed_forms(self, monkeypatch, design):
        def refuse(A):
            raise AssertionError("the channels split the realization")

        monkeypatch.setattr(tf_module, "_resolvent", refuse)
        c = build_adrc(design)
        c_r, c_y = extract_cr_cy(c)
        again = extract_cr_cy(c)
        assert again[0] is c_r and again[1] is c_y
        assert c_r.den is c_y.den
        for got, want in zip((c_r, c_y), adrc_channels(design)):
            for a, b in ((got.num, want.num), (got.den, want.den)):
                assert np.array(a.coeffs).tobytes() == np.array(b.coeffs).tobytes()

    def test_channels_refused_past_the_float_range_on_first_read(self):
        # g**3 * w**5, the constant term of both numerators, overflows, though every gain is finite
        c = build_adrc(AdrcDesign(2, 1e-3, 5e98, 1.0))
        with pytest.raises(ValueError, match="^the controller transfer function at this tuning is not representable"):
            extract_cr_cy(c)


def _ulps(x: float, exact: Fraction) -> float:
    """|x - exact| in units in the last place of exact; 0 only for an exact zero."""
    if exact == 0:
        return 0.0 if x == 0.0 else math.inf
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


# g up to 1e15, far past where a numeric split of the realization keeps any digit (order 2, g >= 1e10)
HIGH_G_TUNINGS = st.tuples(st.sampled_from((1, 2)), log_uniform(1e-3, 1e3), log_uniform(1.0, 1e15), st.sampled_from((-1.0, 1.0)))


class TestClosedForms:
    """The channels build_adrc's controller carries against the exact split of its realization."""

    @settings(max_examples=150)
    @given(st.one_of(TUNINGS, HIGH_G_TUNINGS))
    @example((2, 1.0, 1e15, -1.0))
    @example((1, 1e-3, 1e15, 1.0))
    def test_within_8_ulp_of_the_exact_split(self, tuning):
        c_r, c_y = extract_cr_cy(build_adrc(AdrcDesign(*tuning)))
        for got, want in zip((c_r.num, c_y.num, c_y.den), exact_adrc_split(*tuning)):
            assert len(got.coeffs) == len(want)
            assert max(_ulps(x, e) for x, e in zip(got.coeffs, want)) <= 8.0, (got.coeffs, want)


class TestGenericDesign:
    @settings(max_examples=300)
    @given(TUNINGS)
    def test_builder_is_the_pidf_rows_with_its_reference_column(self, tuning):
        d = AdrcDesign(*tuning)
        A, B, C, D = build_adrc(d).realization
        A_e, B_e, C_e, D_e = equivalent_realization(equivalent_params(d))
        y_column, y_column_e = [[row[1] for row in rows] for rows in (B, B_e)]
        assert _hex((A, C, D, [y_column])) == _hex((A_e, C_e, D_e, [y_column_e]))
        column = [row[0] for row in B]
        exact = exact_reference_column(*tuning)
        assert len(column) == len(exact) == d.order + 1
        assert all(map(within_roundings, column, exact, COLUMN_ROUNDINGS[d.order])), (column, exact)

    @settings(max_examples=50)
    @given(st.one_of(TUNINGS, HIGH_G_TUNINGS))
    def test_pidf_rows_with_the_exact_column_are_adrc_exactly(self, tuning):
        # the paper's claim, in exact arithmetic: ADRC is the PI(D)F's measurement path with its own
        # reference column, so both splits, from those rows and from the observer form, are equal
        A, B, C, D = exact_pidf_rows(*tuning)
        B = [[beta, b_y] for beta, (_, b_y) in zip(exact_reference_column(*tuning), B)]
        assert exact_split(A, B, C, D) == exact_adrc_split(*tuning)

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


def _bits(params):
    return [v.hex() for v in (params.kp, params.ki, params.kd, params.Tf, params.b, params.d)]


def _hex(matrices):
    """The entries of a list of matrices, rows of floats, as hex strings, row by row."""
    return [[[v.hex() for v in row] for row in m] for m in matrices]


class TestKeptTuning:
    """A design keeps the gains and PI(D)F parameters that its own check computed."""

    @settings(max_examples=200)
    @given(TUNINGS)
    def test_equivalent_params_are_the_closed_forms(self, tuning):
        d = AdrcDesign(*tuning)
        assert _bits(equivalent_params(d)) == _bits(PidParams(*_equivalent_fields(*tuning)))

    @pytest.mark.parametrize("order", [1, 2])
    def test_replaced_design_gets_its_own_values(self, order):
        d = AdrcDesign(order, 1.0, 10.0, 2.0)
        flipped = AdrcDesign(d.order, d.T_s, d.g, -d.b0)
        p, q = equivalent_params(d), equivalent_params(flipped)
        assert (q.kp, q.ki, q.kd, q.Tf, q.b, q.d) == (-p.kp, -p.ki, -p.kd, p.Tf, p.b, p.d)
        assert _bits(q) == _bits(PidParams(*_equivalent_fields(flipped.order, flipped.T_s, flipped.g, flipped.b0)))
        assert design_gains(flipped) == design_gains(d)

    def test_equal_designs_compare_hash_and_print_by_their_inputs(self):
        a, b = tune_second_order(1.0, 10.0, 2.0), AdrcDesign(2, 1.0, 10.0, 2.0)
        assert a == b and hash(a) == hash(b)
        assert a != AdrcDesign(a.order, a.T_s, a.g, -2.0)
        assert repr(a) == "AdrcDesign(order=2, T_s=1.0, g=10.0, b0=2.0)"

    @pytest.mark.parametrize(
        "inputs, name, reason",
        [
            ((2, 1.0, 1e300), "g", GAINS),
            ((2, 1e-300, 10.0), "T_s", GAINS),
            ((1, 1e300, 10.0), "T_s", GAINS),
            ((2, 1.0, 10.0, 1e-320), "b0", GAINS),
            # gains and parameters in range, but a realization entry past it
            ((1, 1e-150, 1.0, 1e-5), "T_s", "an entry of the PI+F realization"),  # ki/Tf
            ((1, 1e-3, 1.0, 1e-300), "b0", "an entry of the PI+F realization"),  # ki/Tf
            # -12 (g + 2) r / (g T_s^2), the last entry of ADRC's reference column
            ((2, 1e-102, 1e-107, 1.0), "T_s", "an entry of the ADRC realization"),
        ],
    )
    def test_out_of_range_names_the_input_that_breaks(self, inputs, name, reason):
        with pytest.raises(ValueError, match=f"^{name}=\\S+ is out of range: {re.escape(reason)} of T_s="):
            AdrcDesign(*inputs)

    @settings(max_examples=300)
    @given(
        st.sampled_from((1, 2)),
        log_uniform(1e-320, 1e300),
        log_uniform(1.0, 1e6),
        st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-320, 1e300)),
    )
    @example(2, 1e-102, 1e-107, 1.0)
    @example(1, 1e-150, 1.0, 1e-5)
    def test_a_refusal_names_the_rule_that_the_values_break(self, order, T_s, g, b0):
        try:
            AdrcDesign(order, T_s, g, b0)
        except ValueError as exc:
            assert str(exc).split(" is out of range: ")[1].startswith(_broken_rule(order, T_s, g, b0) + " of T_s=")


def _broken_rule(order, T_s, g, b0):
    """GAINS if a gain or PI(D) parameter of the tuning is not finite and nonzero, else
    the realization, PI(D)F's or else ADRC's reference column, with an entry that is not
    finite: that column's exact value past the float range."""
    w = SETTLING_CONSTANTS[order] / T_s
    try:
        if order == 1:
            gains = (w, 2.0 * g * w, (g * w) ** 2)
        else:
            gains = (w**2, 2.0 * w, 3.0 * g * w, 3.0 * (g * w) ** 2, (g * w) ** 3)
        kp, ki, kd, Tf, b, d = _equivalent_fields(order, T_s, g, b0)
    except ArithmeticError:
        return GAINS
    if not all(math.isfinite(v) and v != 0.0 for v in (*gains, kp, ki, Tf, b) + ((kd, d) if order == 2 else ())):
        return GAINS
    try:
        rows = equivalent_realization(SimpleNamespace(kp=kp, ki=ki, kd=kd, Tf=Tf, b=b, d=d))
        finite = all(math.isfinite(v) for matrix in rows for row in matrix for v in row)
    except ArithmeticError:
        finite = False
    if not finite:
        return f"an entry of the {('PI+F', 'PID+F')[order - 1]} realization"
    if any(abs(x) > sys.float_info.max for x in exact_reference_column(order, T_s, g, b0)):
        return "an entry of the ADRC realization"
    return GAINS


class TestFiniteRealizations:
    """Every design accepted across the float range builds two realizations with finite entries."""

    @settings(max_examples=300)
    @given(
        st.sampled_from((1, 2)),
        log_uniform(1e-320, 1e300),
        log_uniform(1.0, 1e6),
        st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-320, 1e300)),
    )
    @example(1, 1e-3, 1.0, 1e-300)  # ki/Tf of the PI+F realization; the gains are in range
    @example(2, 1e5, 1.0, -1e-310)  # 1/b0 in the ADRC observer form's C; the PID+F rows are finite
    @example(2, 1e-102, 1e-107, 1.0)  # the last entry of ADRC's reference column; refused
    def test_accepted_designs_build_finite_realizations(self, order, T_s, g, b0):
        # the suite turns warnings into errors, so an overflow inside build_adrc fails here too
        try:
            design = AdrcDesign(order, T_s, g, b0)
        except ValueError as exc:
            assert re.match(r"(T_s|g|b0)=\S+ is out of range: ", str(exc))
            return
        for rows in (*build_adrc(design).realization, *equivalent_realization(equivalent_params(design))):
            assert all(math.isfinite(v) for row in rows for v in row)
