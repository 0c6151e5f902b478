import math
from fractions import Fraction

import numpy as np
import pytest

from adrcpid.adrc import build_adrc, extract_cr_cy, tune_first_order, tune_second_order
from adrcpid.lti import log_grid, ss_to_tf, tf_minreal, tf_neg, tf_residual
from adrcpid.pid_equiv import (
    PidParams,
    build_pidf_controller,
    build_pif_controller,
    pidf_from_adrc,
    pif_from_adrc,
    reference_channel_gap,
    verify_asymptotes,
)

TS_GRID = (0.5, 1.0, 2.0)
G_GRID = (2.0, 5.0, 10.0, 20.0)
B0_GRID = (0.5, 1.0, 3.0)

# pinned outputs of the frequency-domain gap oracle on the default grid
FREQ_GAP_GOLDEN = {1: 0.2880833223211246, 2: 0.5909713628454178}


class TestPifParams:
    def test_nominal_values_exact(self):
        p = pif_from_adrc(tune_first_order(1, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(480, 21)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(1600, 21)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 84)), rel=1e-12)
        assert p.b == pytest.approx(0.175, rel=1e-12)

    def test_b0_scaling(self):
        p1 = pif_from_adrc(tune_first_order(1, 10, 1))
        p2 = pif_from_adrc(tune_first_order(1, 10, 2))
        assert p2.kp == pytest.approx(p1.kp / 2, rel=1e-12)
        assert p2.ki == pytest.approx(p1.ki / 2, rel=1e-12)
        assert p2.Tf == pytest.approx(p1.Tf, rel=1e-12)
        assert p2.b == pytest.approx(0.175, rel=1e-12)

    def test_settling_time_scaling(self):
        p = pif_from_adrc(tune_first_order(2, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(240, 21)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(400, 21)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 42)), rel=1e-12)
        assert p.b == pytest.approx(0.175, rel=1e-12)

    def test_setpoint_weight_in_unit_interval(self):
        for g in G_GRID:
            p = pif_from_adrc(tune_first_order(1, g, 1))
            assert 0 < p.b < 1
            assert p.b == pytest.approx((2 * g + 1) / (g * (g + 2)), rel=1e-12)


class TestPidfParams:
    def test_nominal_values_exact(self):
        p = pidf_from_adrc(tune_second_order(1, 10, 1))
        assert p.kp == pytest.approx(float(Fraction(82800, 361)), rel=1e-12)
        assert p.ki == pytest.approx(float(Fraction(216000, 361)), rel=1e-12)
        assert p.kd == pytest.approx(float(Fraction(9780, 361)), rel=1e-12)
        assert p.Tf == pytest.approx(float(Fraction(1, 114)), rel=1e-12)
        assert p.d == pytest.approx(float(Fraction(16, 19)), rel=1e-12)
        assert p.b == pytest.approx(float(Fraction(12996, 82800)), rel=1e-12)

    def test_minimum_damping_at_unit_multiplier(self):
        p = pidf_from_adrc(tune_second_order(1, 1, 1))
        assert p.d == pytest.approx(5 / (2 * math.sqrt(10)), rel=1e-12)

    def test_b0_scaling(self):
        p1 = pidf_from_adrc(tune_second_order(1, 10, 1))
        p3 = pidf_from_adrc(tune_second_order(1, 10, 3))
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
        ds = np.array([pidf_from_adrc(tune_second_order(1, float(g), 1)).d for g in gs])
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
        assert tf_residual(c_y, pif_from_adrc(d).feedback_tf()) < 1e-9

    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_second_order(self, ts, g, b0):
        d = tune_second_order(ts, g, b0)
        _, c_y = extract_cr_cy(build_adrc(d))
        assert tf_residual(c_y, pidf_from_adrc(d).feedback_tf()) < 1e-9


class TestPifRealization:
    def test_measurement_channel_matches_adrc(self):
        d = tune_first_order(1, 10, 1)
        adrc_y = extract_cr_cy(build_adrc(d))[1]
        ctrl = build_pif_controller(pif_from_adrc(d))
        built_y = tf_neg(ctrl.measurement_tf())
        assert tf_residual(tf_minreal(built_y, 1e-6), adrc_y) < 1e-9

    def test_channels_match_closed_forms(self):
        p = pif_from_adrc(tune_first_order(1, 10, 1))
        ctrl = build_pif_controller(p)
        y_chan = tf_minreal(ss_to_tf(ctrl.ss, 1, 0), 1e-6)
        r_chan = tf_minreal(ss_to_tf(ctrl.ss, 0, 0), 1e-6)
        assert tf_residual(y_chan, tf_neg(p.feedback_tf())) < 1e-9
        assert tf_residual(r_chan, p.reference_tf()) < 1e-9

    def test_high_frequency_reference_gain_is_kp_weighted(self):
        p = pif_from_adrc(tune_first_order(1, 10, 1))
        ctrl = build_pif_controller(p)
        assert abs(ctrl.reference_tf()(1e9j)) == pytest.approx(p.b * p.kp, rel=1e-8)
        assert p.b * p.kp == pytest.approx(4.0, rel=1e-12)

    def test_low_frequency_reference_integral_gain(self):
        p = pif_from_adrc(tune_first_order(1, 10, 1))
        s = 1e-9j
        assert abs(s * p.reference_tf()(s)) == pytest.approx(p.ki, rel=1e-9)

    def test_filter_time_constant_required_positive(self):
        for Tf in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_pif_controller(PidParams(kp=1.0, ki=1.0, kd=0.0, Tf=Tf, b=0.5))


class TestPidfRealization:
    def test_measurement_channel_matches_adrc(self):
        d = tune_second_order(1, 10, 1)
        adrc_y = extract_cr_cy(build_adrc(d))[1]
        ctrl = build_pidf_controller(pidf_from_adrc(d))
        built_y = tf_neg(ctrl.measurement_tf())
        assert tf_residual(tf_minreal(built_y, 1e-6), adrc_y) < 1e-9

    def test_channels_match_closed_forms(self):
        p = pidf_from_adrc(tune_second_order(1, 10, 1))
        ctrl = build_pidf_controller(p)
        y_chan = tf_minreal(ss_to_tf(ctrl.ss, 1, 0), 1e-6)
        r_chan = tf_minreal(ss_to_tf(ctrl.ss, 0, 0), 1e-6)
        assert tf_residual(y_chan, tf_neg(p.feedback_tf())) < 1e-9
        assert tf_residual(r_chan, p.reference_tf()) < 1e-9

    def test_high_frequency_reference_gain(self):
        p = pidf_from_adrc(tune_second_order(1, 10, 1))
        assert p.b * p.kp == pytest.approx(36.0, rel=1e-12)
        ctrl = build_pidf_controller(p)
        assert abs(ctrl.reference_tf()(1e9j)) == pytest.approx(36.0, rel=1e-8)

    def test_filter_unity_dc_gives_integral_gain(self):
        # the measurement filter is unity at DC, so the measurement channel
        # keeps the pure integral gain ki
        p = pidf_from_adrc(tune_second_order(1, 10, 1))
        omega = 1e-8
        assert abs(p.feedback_tf()(1j * omega)) * omega == pytest.approx(p.ki, rel=1e-6)

    def test_filter_params_required_positive(self):
        with pytest.raises(ValueError):
            build_pidf_controller(PidParams(kp=1, ki=1, kd=1, Tf=-0.1, b=0.5, d=1.0))
        with pytest.raises(ValueError):
            build_pidf_controller(PidParams(kp=1, ki=1, kd=1, Tf=0.1, b=0.5, d=0.0))
        for bad in (dict(Tf=math.nan), dict(d=math.inf), dict(kp=math.nan), dict(ki=math.inf), dict(kd=-math.inf), dict(b=math.nan)):
            with pytest.raises(ValueError):
                build_pidf_controller(PidParams(**{"kp": 1, "ki": 1, "kd": 1, "Tf": 0.1, "b": 0.5, **bad}))


class TestAsymptotes:
    def test_first_order_pairs(self):
        d = tune_first_order(1, 10, 1)
        report = verify_asymptotes(d, pif_from_adrc(d))
        assert report.passed
        low, high = report.checks
        assert abs(low.adrc_value) == pytest.approx(1600 / 21, rel=1e-4)
        assert abs(low.equivalent_value) == pytest.approx(1600 / 21, rel=1e-4)
        assert abs(high.adrc_value) == pytest.approx(4.0, rel=1e-4)
        assert abs(high.equivalent_value) == pytest.approx(4.0, rel=1e-4)
        assert low.rel_mismatch < 1e-4
        assert high.rel_mismatch < 1e-4

    def test_second_order_pairs(self):
        d = tune_second_order(1, 10, 1)
        report = verify_asymptotes(d, pidf_from_adrc(d))
        assert report.passed
        low, high = report.checks
        assert abs(low.adrc_value) == pytest.approx(216000 / 361, rel=1e-4)
        assert abs(high.adrc_value) == pytest.approx(36.0, rel=1e-4)
        assert abs(high.equivalent_value) == pytest.approx(36.0, rel=1e-4)

    def test_detects_mismatched_parameters(self):
        d = tune_first_order(1, 10, 1)
        wrong = pif_from_adrc(tune_first_order(1, 10, 1.05))
        report = verify_asymptotes(d, wrong)
        assert not report.passed


class TestReferenceChannelGap:
    @pytest.mark.parametrize("order", [1, 2])
    def test_vanishes_at_grid_extremes(self, order):
        d = tune_first_order(1, 10, 1) if order == 1 else tune_second_order(1, 10, 1)
        params = pif_from_adrc(d) if order == 1 else pidf_from_adrc(d)
        omega = log_grid(1e-4, 1e8, 800)
        _, table = reference_channel_gap(d, params, omega)
        gap = table.columns["rel_gap"].real
        assert gap[0] < 1e-3
        assert gap[-1] < 1e-3

    @pytest.mark.parametrize("order", [1, 2])
    def test_supremum_matches_golden(self, order):
        d = tune_first_order(1, 10, 1) if order == 1 else tune_second_order(1, 10, 1)
        params = pif_from_adrc(d) if order == 1 else pidf_from_adrc(d)
        omega = log_grid()
        sup, table = reference_channel_gap(d, params, omega)
        assert sup == pytest.approx(FREQ_GAP_GOLDEN[order], abs=1e-9)
        # finite and attained in the interior of the grid
        peak = int(np.argmax(table.columns["rel_gap"].real))
        assert 0 < peak < omega.size - 1


class TestSetpointWeightConsistency:
    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_first_order(self, ts, g, b0):
        p = pif_from_adrc(tune_first_order(ts, g, b0))
        assert p.b * p.kp * b0 == pytest.approx(4.0 / ts, rel=1e-12)

    @pytest.mark.parametrize("ts", TS_GRID)
    @pytest.mark.parametrize("g", G_GRID)
    @pytest.mark.parametrize("b0", B0_GRID)
    def test_second_order(self, ts, g, b0):
        p = pidf_from_adrc(tune_second_order(ts, g, b0))
        assert p.b * p.kp * b0 == pytest.approx(36.0 / ts**2, rel=1e-12)
