import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import TUNINGS, log_uniform
from hypothesis import given, settings
from hypothesis import strategies as st

from adrcpid.adrc import build_adrc, extract_cr_cy, tune_first_order, tune_second_order
from adrcpid.design import AdrcDesign
from adrcpid.lti import StateSpaceModel, ss_to_tf
from adrcpid.pid_equiv import (
    PidParams,
    build_equivalent_controller,
    equivalent_params,
    equivalent_realization,
    reference_channel_gap,
    verify_asymptotes,
)
from adrcpid.tf import log_grid, tf_neg, tf_residual

def _model(ctrl):
    """The state-space model of a controller's rows, inputs [r, y], output u."""
    return StateSpaceModel(*ctrl.realization, ("r", "y"), ("u",))


TS_GRID = (0.5, 1.0, 2.0)
G_GRID = (2.0, 5.0, 10.0, 20.0)
B0_GRID = (0.5, 1.0, 3.0)

# pinned outputs of the frequency-domain gap oracle on the default grid
FREQ_GAP_GOLDEN = {1: 0.2880833223211246, 2: 0.5909713628454178}


class TestPifParams:
    def test_nominal_values_exact(self):
        p = equivalent_params(tune_first_order(1, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(480, 21)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(1600, 21)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 84)), rel=1e-12)
        assert p.b == pytest.approx(0.175, rel=1e-12)

    def test_b0_scaling(self):
        p1 = equivalent_params(tune_first_order(1, 10, 1))
        p2 = equivalent_params(tune_first_order(1, 10, 2))
        assert p2.kp == pytest.approx(p1.kp / 2, rel=1e-12)
        assert p2.ki == pytest.approx(p1.ki / 2, rel=1e-12)
        assert p2.Tf == pytest.approx(p1.Tf, rel=1e-12)
        assert p2.b == pytest.approx(0.175, rel=1e-12)

    def test_settling_time_scaling(self):
        p = equivalent_params(tune_first_order(2, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(240, 21)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(400, 21)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 42)), rel=1e-12)
        assert p.b == pytest.approx(0.175, rel=1e-12)

    def test_setpoint_weight_in_unit_interval(self):
        for g in G_GRID:
            p = equivalent_params(tune_first_order(1, g, 1))
            assert 0 < p.b < 1
            assert p.b == pytest.approx((2 * g + 1) / (g * (g + 2)), rel=1e-12)


class TestPidfParams:
    def test_nominal_values_exact(self):
        p = equivalent_params(tune_second_order(1, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(82800, 361)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(216000, 361)), rel=1e-12)
        assert p.kd == pytest.approx(float(Fraction(9780, 361)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 114)), rel=1e-12)
        assert p.d == pytest.approx(float(Fraction(16, 19)), rel=1e-12)
        assert p.b == pytest.approx(float(Fraction(12996, 82800)), rel=1e-12)

    def test_minimum_damping_at_unit_multiplier(self):
        p = equivalent_params(tune_second_order(1, 1, 1))
        assert p.d == pytest.approx(5 / (2 * math.sqrt(10)), rel=1e-12)

    def test_b0_scaling(self):
        p1 = equivalent_params(tune_second_order(1, 10, 1))
        p3 = equivalent_params(tune_second_order(1, 10, 3))
        assert p3.kp == pytest.approx(p1.kp / 3, rel=1e-12)
        assert p3.ki == pytest.approx(p1.ki / 3, rel=1e-12)
        assert p3.kd == pytest.approx(p1.kd / 3, rel=1e-12)
        assert p3.Tf == pytest.approx(p1.Tf, rel=1e-12)
        assert p3.d == pytest.approx(p1.d, rel=1e-12)
        # b is b0-independent; the product b*kp*b0 is the invariant quantity
        assert p3.b == pytest.approx(p1.b, rel=1e-12)
        assert p3.b * p3.kp * 3 == pytest.approx(p1.b * p1.kp, rel=1e-12)

    def test_damping_range_over_multiplier(self):
        gs = np.logspace(np.log10(0.1), np.log10(100.0), 201)
        ds = np.array([equivalent_params(tune_second_order(1, float(g), 1)).d for g in gs])
        lower = 5 / (2 * math.sqrt(10))
        assert np.all(ds >= lower - 1e-12)
        assert np.all(ds < 1.0)
        assert abs(ds.min() - lower) < 1e-3
        assert gs[int(np.argmin(ds))] == pytest.approx(1.0, rel=0.05)


class TestExactFeedbackEquivalence:
    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_first_order(self, ts, g, b0):
        d = tune_first_order(ts, g, b0)
        _, c_y = extract_cr_cy(build_adrc(d))
        assert tf_residual(c_y, equivalent_params(d).feedback_tf()) < 1e-9

    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_second_order(self, ts, g, b0):
        d = tune_second_order(ts, g, b0)
        _, c_y = extract_cr_cy(build_adrc(d))
        assert tf_residual(c_y, equivalent_params(d).feedback_tf()) < 1e-9


class TestPifRealization:
    def test_measurement_channel_matches_adrc(self):
        d = tune_first_order(1, 10, 1)
        adrc_y = extract_cr_cy(build_adrc(d))[1]
        ctrl = build_equivalent_controller(equivalent_params(d))
        built_y = tf_neg(ss_to_tf(_model(ctrl), 1, 0))
        assert tf_residual(built_y, adrc_y) < 1e-9

    def test_channels_match_closed_forms(self):
        p = equivalent_params(tune_first_order(1, 10, 1))
        ctrl = build_equivalent_controller(p)
        assert len(ctrl.realization[0]) == 2  # kd = 0 selects the PI+F realization
        y_chan = ss_to_tf(_model(ctrl), 1, 0)
        r_chan = ss_to_tf(_model(ctrl), 0, 0)
        assert tf_residual(y_chan, tf_neg(p.feedback_tf())) < 1e-9
        assert tf_residual(r_chan, p.reference_tf()) < 1e-9

    def test_high_frequency_reference_gain_is_kp_weighted(self):
        p = equivalent_params(tune_first_order(1, 10, 1))
        ctrl = build_equivalent_controller(p)
        assert abs(ss_to_tf(_model(ctrl), 0, 0)(1e9j)) == pytest.approx(p.b * p.kp, rel=1e-8)
        assert p.b * p.kp == pytest.approx(4.0, rel=1e-12)

    def test_low_frequency_reference_integral_gain(self):
        p = equivalent_params(tune_first_order(1, 10, 1))
        s = 1e-9j
        assert abs(s * p.reference_tf()(s)) == pytest.approx(p.ki, rel=1e-9)

    def test_filter_time_constant_required_positive(self):
        for Tf in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_equivalent_controller(PidParams(kp=1.0, ki=1.0, kd=0.0, Tf=Tf, b=0.5))


class TestPidfRealization:
    def test_measurement_channel_matches_adrc(self):
        d = tune_second_order(1, 10, 1)
        adrc_y = extract_cr_cy(build_adrc(d))[1]
        ctrl = build_equivalent_controller(equivalent_params(d))
        built_y = tf_neg(ss_to_tf(_model(ctrl), 1, 0))
        assert tf_residual(built_y, adrc_y) < 1e-9

    def test_channels_match_closed_forms(self):
        p = equivalent_params(tune_second_order(1, 10, 1))
        ctrl = build_equivalent_controller(p)
        assert len(ctrl.realization[0]) == 3
        y_chan = ss_to_tf(_model(ctrl), 1, 0)
        r_chan = ss_to_tf(_model(ctrl), 0, 0)
        assert tf_residual(y_chan, tf_neg(p.feedback_tf())) < 1e-9
        assert tf_residual(r_chan, p.reference_tf()) < 1e-9

    def test_high_frequency_reference_gain(self):
        p = equivalent_params(tune_second_order(1, 10, 1))
        assert p.b * p.kp == pytest.approx(36.0, rel=1e-12)
        ctrl = build_equivalent_controller(p)
        assert abs(ss_to_tf(_model(ctrl), 0, 0)(1e9j)) == pytest.approx(36.0, rel=1e-8)

    def test_filter_unity_dc_gives_integral_gain(self):
        # the measurement filter is unity at DC, so the measurement channel
        # keeps the pure integral gain ki
        p = equivalent_params(tune_second_order(1, 10, 1))
        omega = 1e-8
        assert abs(p.feedback_tf()(1j * omega)) * omega == pytest.approx(p.ki, rel=1e-6)

    def test_filter_params_required_positive(self):
        with pytest.raises(ValueError):
            build_equivalent_controller(PidParams(kp=1, ki=1, kd=1, Tf=-0.1, b=0.5, d=1.0))
        with pytest.raises(ValueError):
            build_equivalent_controller(PidParams(kp=1, ki=1, kd=1, Tf=0.1, b=0.5, d=0.0))
        for bad in (dict(Tf=math.nan), dict(d=math.inf), dict(kp=math.nan), dict(ki=math.inf), dict(kd=-math.inf), dict(b=math.nan)):
            with pytest.raises(ValueError):
                build_equivalent_controller(PidParams(**{"kp": 1, "ki": 1, "kd": 1, "Tf": 0.1, "b": 0.5, **bad}))

    @pytest.mark.parametrize("Tf", [1e160, 1.4e154, 1e-155, 1e-200])
    def test_filter_square_out_of_range_refused_naming_tf(self, Tf):
        # Tf^2 overflows, or 1/Tf^2 does, or Tf^2 is 0
        with pytest.raises(ValueError, match="^" + re.escape(f"Tf={Tf!r} is out of range: with kd != 0")):
            PidParams(kp=1, ki=1, kd=1, Tf=Tf, b=0.5)
        # PI+F forms no Tf^2
        _, c_y = extract_cr_cy(build_equivalent_controller(PidParams(kp=1, ki=1, kd=0.0, Tf=Tf, b=0.5)))
        assert c_y.den.coeffs[-1] == 1.0

    @pytest.mark.parametrize("Tf", [1.3e154, 1e-154])
    def test_filter_square_in_range_accepted(self, Tf):
        p = PidParams(kp=1, ki=1, kd=1, Tf=Tf, b=0.5)
        A, _, _, _ = equivalent_realization(p)
        assert math.isfinite(A[2][0]) and A[2][0] != 0.0
        assert all(map(math.isfinite, p.feedback_tf().den.coeffs))


class TestFiniteRealization:
    """PidParams refuses values whose realization has an entry past the float range."""

    @pytest.mark.parametrize(
        "values, fields",
        [
            (dict(kp=1e300, ki=1.0, kd=0.0, Tf=1e-10, b=1.0), "kp=1e+300, ki=1.0, Tf=1e-10, b=1.0"),  # kp/Tf
            (dict(kp=1.0, ki=1e300, kd=0.0, Tf=1e-10, b=1.0), "kp=1.0, ki=1e+300, Tf=1e-10, b=1.0"),  # ki/Tf
            (dict(kp=1.0, ki=1.0, kd=0.0, Tf=5e-324, b=1.0), "kp=1.0, ki=1.0, Tf=5e-324, b=1.0"),  # 1/Tf
            (dict(kp=1e200, ki=1.0, kd=0.0, Tf=1.0, b=1e200), "kp=1e+200, ki=1.0, Tf=1.0, b=1e+200"),  # b*kp
            (
                dict(kp=1.0, ki=1.0, kd=1.0, Tf=1e-10, b=1.0, d=1e300),  # 2d/Tf
                "kp=1.0, ki=1.0, kd=1.0, Tf=1e-10, b=1.0, d=1e+300",
            ),
            (
                dict(kp=1e200, ki=1.0, kd=1.0, Tf=1.0, b=-1e200),  # b*kp
                "kp=1e+200, ki=1.0, kd=1.0, Tf=1.0, b=-1e+200, d=1.0",
            ),
        ],
    )
    def test_out_of_range_entry_refused_naming_the_fields(self, values, fields):
        form = "PI+F" if values["kd"] == 0.0 else "PID+F"
        message = f"{fields} are out of range: an entry of their {form} realization is not finite"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            PidParams(**values)

    @settings(max_examples=200)
    @given(
        st.tuples(*[log_uniform(1e-320, 1e300)] * 4).map(lambda v: dict(zip(("kp", "ki", "Tf", "b"), v))),
        st.sampled_from([0.0, 1.0]),
        log_uniform(1e-3, 1e3),
    )
    def test_accepted_values_have_a_finite_realization(self, values, kd, d):
        try:
            p = PidParams(kd=kd, d=d, **values)
        except ValueError:
            return
        for rows in equivalent_realization(p):
            assert all(math.isfinite(v) for row in rows for v in row)


def reference_extremes(d, params, low_omega=1e-6, high_omega=1e6):
    """(s*C_r, s*K_ry) at s = j*low_omega and (C_r, K_ry) at s = j*high_omega."""
    c_r, _ = extract_cr_cy(build_adrc(d))
    k_ry = params.reference_tf()
    s_lo, s_hi = 1j * low_omega, 1j * high_omega
    return (s_lo * c_r(s_lo), s_lo * k_ry(s_lo)), (c_r(s_hi), k_ry(s_hi))


class TestAsymptotes:
    def test_first_order_pairs(self):
        d = tune_first_order(1, 10, 1)
        p = equivalent_params(d)
        (low_adrc, low_equiv), (high_adrc, high_equiv) = reference_extremes(d, p)
        assert abs(low_adrc) == pytest.approx(1600 / 21, rel=1e-4)
        assert abs(low_equiv) == pytest.approx(1600 / 21, rel=1e-4)
        assert abs(high_adrc) == pytest.approx(4.0, rel=1e-4)
        assert abs(high_equiv) == pytest.approx(4.0, rel=1e-4)
        c_r, _ = extract_cr_cy(build_adrc(d))
        low, high = verify_asymptotes(c_r, p)
        assert low < 1e-4
        assert high < 1e-4
        # the mismatches are those of the exact limits, read from the coefficients of C_r
        num, den = c_r.num.coeffs, c_r.den.coeffs
        assert den[0] == 0.0
        for adrc_limit, equiv_limit, exact, mismatch in (
            (num[0] / den[1], p.ki, 1600 / 21, low),
            (num[-1] / den[-1], p.b * p.kp, 4.0, high),
        ):
            assert adrc_limit == pytest.approx(exact, rel=1e-12)
            assert equiv_limit == pytest.approx(exact, rel=1e-12)
            assert mismatch == abs(adrc_limit - equiv_limit) / max(abs(adrc_limit), abs(equiv_limit))

    def test_second_order_pairs(self):
        d = tune_second_order(1, 10, 1)
        p = equivalent_params(d)
        (low_adrc, _), (high_adrc, high_equiv) = reference_extremes(d, p)
        assert abs(low_adrc) == pytest.approx(216000 / 361, rel=1e-4)
        assert abs(high_adrc) == pytest.approx(36.0, rel=1e-4)
        assert abs(high_equiv) == pytest.approx(36.0, rel=1e-4)
        low, high = verify_asymptotes(extract_cr_cy(build_adrc(d))[0], p)
        assert low < 1e-4 and high < 1e-4

    def test_detects_mismatched_parameters(self):
        d = tune_first_order(1, 10, 1)
        wrong = equivalent_params(tune_first_order(1, 10, 1.05))
        low, high = verify_asymptotes(extract_cr_cy(build_adrc(d))[0], wrong)
        assert not (low < 1e-4 and high < 1e-4)

    @settings(max_examples=200)
    @given(TUNINGS)
    def test_the_equivalent_controller_matches_its_own_parameters(self, tuning):
        p = equivalent_params(AdrcDesign(*tuning))
        low, high = verify_asymptotes(extract_cr_cy(build_equivalent_controller(p))[0], p)
        assert low < 1e-12 and high < 1e-12


def reference_channel(A, B, C, D):
    """C_r, the r -> u channel, of a hand-built controller realization with inputs [r, y]."""
    return ss_to_tf(StateSpaceModel(*map(np.array, (A, B, C, D))), input=0)


class TestAsymptotesOfAnyController:
    """verify_asymptotes on reference channels that lack what ADRC's has."""

    UNIT = PidParams(kp=1.0, ki=1.0, kd=0.0, Tf=0.1, b=1.0)  # ki = b*kp = 1

    def test_strictly_proper_reference_channel_has_a_high_limit_of_zero(self):
        c_r = reference_channel([[0.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])  # C_r = 1/s
        assert c_r.num.coeffs == (1.0,)
        assert verify_asymptotes(c_r, self.UNIT) == (0.0, 1.0)

    def test_double_pole_at_zero_has_no_integral_gain(self):
        # C_r = 1 + 1/s^2 = (1 + s^2)/s^2: den[0] == den[1] == 0
        c_r = reference_channel([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]])
        assert c_r.den.coeffs == (0.0, 0.0, 1.0)
        assert verify_asymptotes(c_r, self.UNIT) == (1.0, 0.0)

    def test_no_pole_at_zero_has_no_integral_gain(self):
        c_r = reference_channel([[-1.0]], [[1.0, 0.0]], [[1.0]], [[1.0, 0.0]])  # C_r = (s + 2)/(s + 1)
        assert verify_asymptotes(c_r, self.UNIT) == (1.0, 0.0)


class TestReferenceTf:
    @settings(max_examples=200)
    @given(TUNINGS)
    def test_is_b_kp_plus_ki_over_s_over_the_feedback_denominator(self, tuning):
        p = equivalent_params(AdrcDesign(*tuning))
        reference = p.reference_tf()
        assert reference.den.coeffs == p.feedback_tf().den.coeffs
        s = 1j * np.array(log_grid(1e-3, 1e3, 61)) / tuning[1]
        expected = p.b * p.kp + p.ki / s
        assert np.max(np.abs(reference(s) - expected) / np.abs(expected)) < 1e-12


class TestReferenceChannelGap:
    @pytest.mark.parametrize("order", [1, 2])
    def test_vanishes_at_grid_extremes(self, order):
        d = tune_first_order(1, 10, 1) if order == 1 else tune_second_order(1, 10, 1)
        params = equivalent_params(d)
        omega = log_grid(1e-4, 1e8, 800)
        _, gap = reference_channel_gap(extract_cr_cy(build_adrc(d))[0], params, omega)
        assert gap[0] < 1e-3
        assert gap[-1] < 1e-3

    @pytest.mark.parametrize("order", [1, 2])
    def test_supremum_matches_golden(self, order):
        d = tune_first_order(1, 10, 1) if order == 1 else tune_second_order(1, 10, 1)
        params = equivalent_params(d)
        omega = log_grid()
        sup, gap = reference_channel_gap(extract_cr_cy(build_adrc(d))[0], params, omega)
        assert sup == pytest.approx(FREQ_GAP_GOLDEN[order], abs=1e-9)
        # finite and attained in the interior of the grid
        peak = int(np.argmax(gap))
        assert 0 < peak < len(omega) - 1 and sup == gap[peak]


class TestSetpointWeightConsistency:
    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_first_order(self, ts, g, b0):
        p = equivalent_params(tune_first_order(ts, g, b0))
        assert p.b * p.kp * b0 == pytest.approx(4.0 / ts, rel=1e-12)

    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_second_order(self, ts, g, b0):
        p = equivalent_params(tune_second_order(ts, g, b0))
        assert p.b * p.kp * b0 == pytest.approx(36.0 / ts**2, rel=1e-12)
