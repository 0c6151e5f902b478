import itertools
import math
import random
import sys
from functools import partial

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import TUNINGS
from hypothesis import example, given, settings

from adrcpid import adrc, verify
from adrcpid.analysis import PlantModel, closed_loop
from adrcpid.design import AdrcDesign, _equivalent_fields, adrc_channels, equivalent_params
from adrcpid.lti import step_response
from adrcpid.pid_equiv import build_equivalent_controller, reference_channel_gap, verify_asymptotes
from adrcpid.tf import RationalTransferFunction, log_grid, tf_residual


def _fidelity(tuning) -> float:
    return verify._realization_residual(build_equivalent_controller(equivalent_params(AdrcDesign(*tuning))))


class TestRealizationFidelity:
    """The printed PI(D)F realizations against their closed forms, over their own denominator."""

    @settings(max_examples=200)
    @given(TUNINGS)
    @example((2, 1e-3, 10.0, 1.0))  # 2.9e-8 when the check cancelled roots 1e-6 apart
    def test_both_channels_match_the_closed_forms(self, tuning):
        assert _fidelity(tuning) < 1e-9

    def test_finds_no_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fidelity check found roots")

        monkeypatch.setattr(npoly, "polyroots", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for order in (1, 2):
            assert _fidelity((order, 1.0, 10.0, 1.0)) < 1e-9


def _patch_build_adrc(monkeypatch, replacement):
    """Replace build_adrc in every loaded adrcpid module that binds it."""
    original = adrc.build_adrc
    for name, module in list(sys.modules.items()):
        if name.startswith("adrcpid.") and getattr(module, "build_adrc", None) is original:
            monkeypatch.setattr(module, "build_adrc", replacement)


class TestWork:
    def test_each_controller_at_the_tuning_is_built_once(self, monkeypatch):
        # the run builds the two ADRC controllers of the tuning it is given, and no other
        built = []
        original = adrc.build_adrc

        def counting(design):
            built.append((design.order, design.T_s, design.g, design.b0))
            return original(design)

        _patch_build_adrc(monkeypatch, counting)
        checks = verify.run_verification(ts=0.3, g=25.0, b0=-4.0)
        assert all(check.passed for check in checks)
        assert built == [(1, 0.3, 25.0, -4.0), (2, 0.3, 25.0, -4.0)]

    def test_every_design_is_the_tunings_or_its_perturbed_twin(self, monkeypatch):
        made = []
        monkeypatch.setattr(verify, "AdrcDesign", lambda *args: made.append(args) or AdrcDesign(*args))
        verify.run_verification(ts=0.3, g=25.0, b0=-4.0, perturb_b0=1.01)
        tuning, perturbed = (0.3, 25.0, -4.0), (0.3, 25.0, -4.0 * 1.01)
        assert made == [(1, *tuning), (2, *tuning), (1, *perturbed), (2, *perturbed)]

    def test_the_reference_checks_build_no_controller(self, monkeypatch):
        designs = [AdrcDesign(order, 1.0, 10.0, 1.0) for order in (1, 2)]
        controllers = [adrc.build_adrc(design) for design in designs]

        def refuse(design):
            raise AssertionError("a reference check built its own controller")

        _patch_build_adrc(monkeypatch, refuse)
        for design, ctrl in zip(designs, controllers):
            params = equivalent_params(design)
            c_r, _ = adrc.extract_cr_cy(ctrl)
            low, high = verify_asymptotes(c_r, params)
            assert low < 1e-4 and high < 1e-4
            sup, _ = reference_channel_gap(c_r, params, log_grid())
            assert 0 < sup < 1


# every check that states an identity, as opposed to a design property
IDENTITY_CHECKS = ("cy_equivalence_", "adrc_realization_", "asymptote_", "gang_of_four_identity_", "s_plus_t_identity_")


@pytest.mark.parametrize("ts", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("g", [1e4, 1e6, 1e10, 1e12])
def test_identity_checks_pass_at_high_g(ts, g):
    checks = [check for check in verify.run_verification(ts=ts, g=g) if check.name.startswith(IDENTITY_CHECKS)]
    assert len(checks) == 12
    assert [check.name for check in checks if not check.passed] == []


# the defaults, the 16 corners of the aim-3 box, and a large T_s*b0, where tf_residual's
# coefficient floor would hide a perturbed C_y if the channels were compared in seconds
SENSITIVITY_TUNINGS = [
    (1.0, 10.0, 1.0),
    *itertools.product((1e-3, 1e3), (1.0, 1e3), (1e-3, -1e-3, 1e3, -1e3)),
    (1e4, 1.0, 1e4),
]


@pytest.mark.parametrize("tuning", SENSITIVITY_TUNINGS)
def test_perturbed_b0_fails_exactly_the_cy_equivalence_lines(tuning):
    clean = verify.run_verification(*tuning)
    perturbed = verify.run_verification(*tuning, perturb_b0=1.01)
    assert [check.name for check in perturbed] == [check.name for check in clean]
    for before, after in zip(clean, perturbed):
        if before.name.startswith("cy_equivalence_order"):
            assert before.passed and not after.passed
            assert abs(after.residual - abs(1.0 - 1.0 / 1.01)) < 1e-6
        else:
            assert after.passed == before.passed, after.name


# the equivalence, realization, set-point and damping lines: the values of the run's own controllers
@pytest.mark.parametrize("tuning", [(1.0, 10.0, 1.0), (100.0, 500.0, -7.0), (1e-3, 1.0, 1e3)])
def test_the_equivalence_lines_are_those_of_the_tuning(tuning):
    ts, g, b0 = tuning
    lines = {check.name: check.residual for check in verify.run_verification(*tuning)}
    alpha = 2.0 ** math.floor(math.log2(ts))  # the power of two at or below T_s
    for order in (1, 2):
        design = AdrcDesign(order, *tuning)
        ctrl, params = adrc.build_adrc(design), equivalent_params(design)
        scale = abs(b0) * alpha**order
        c_y = (ctrl.channels(alpha)[1], params.channels(alpha)[1])
        cy = tf_residual(*(RationalTransferFunction(c.num.scaled(scale), c.den) for c in c_y))
        assert lines[f"cy_equivalence_order{order}"] == cy
        assert lines[f"adrc_realization_order{order}"] == verify._realization_residual(ctrl)
        weight = abs(params.b * params.kp * b0 - design.K_P) / design.K_P
        assert lines[f"setpoint_weight_consistency_order{order}"] == weight
    assert lines["filter_damping_range"] == 0.0


@given(TUNINGS.map(lambda tuning: tuning[1:]))
def test_every_check_but_the_settling_time_passes_across_the_aim3_range(point):
    # settling_time_nominal_order1 is left out: its bound assumes a fast observer and the nominal
    # plant K = +-1 whatever b0 is, and waits on the normalized-time decision (see ROADMAP)
    ts, g, b0 = point
    failed = [check.name for check in verify.run_verification(ts=ts, g=g, b0=b0) if not check.passed]
    assert [name for name in failed if name != "settling_time_nominal_order1"] == []


def _table_settling_time(ctrl, plant, ts, band=0.02):
    """The settling check's residual from the numpy step table of the loop's model, by
    verify's rule: inf for a trace that is not finite or that ends outside the band."""
    table = step_response(closed_loop(plant, ctrl), input=0, t_end=3.0 * ts, n_steps=6000)
    y = table.columns["y"].tolist()
    if not all(map(math.isfinite, y)):
        return math.inf
    outside = [k for k, v in enumerate(y) if abs(v - 1.0) > band]
    if not outside:
        return 0.0
    return math.inf if outside[-1] == len(y) - 1 else float(table.t[outside[-1] + 1])


def test_plain_settling_time_equals_the_step_tables_across_the_aim3_range():
    # the two exponentials and recurrences agree to far below the grid and the band
    rng = random.Random(3232)
    for _ in range(80):
        ts, g = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(0.0, 3.0)
        b0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        ctrl, plant = adrc.build_adrc(AdrcDesign(1, ts, g, b0)), PlantModel(1, math.copysign(1.0, b0), 1.0)
        assert verify._settling_time(ctrl, plant, ts) == _table_settling_time(ctrl, plant, ts), (ts, g, b0)


class TestAdrcRealization:
    @given(TUNINGS)
    def test_passes_across_the_aim3_range(self, tuning):
        assert verify._realization_residual(adrc.build_adrc(AdrcDesign(*tuning))) < 1e-9

    def test_detects_forms_that_the_realization_does_not_realize(self):
        design = AdrcDesign(2, 1.0, 10.0, 1.0)
        other = AdrcDesign(2, 1.0, 10.0 * (1 + 1e-8), 1.0)
        mismatched = adrc.TwoInputController(adrc.build_adrc(design).realization, partial(adrc_channels, other))
        assert verify._realization_residual(adrc.build_adrc(design)) < 1e-12
        assert verify._realization_residual(mismatched) > 1e-9


def _symbolic_forms(sp, n, T_s, g, b0, s):
    """(K_P, C_r, C_y, (kp, ki, kd, Tf, b, d), F) of order n in symbols: ADRC's channels as
    design.adrc_channels states them, and the PI(D)F match and its filter F as
    design._equivalent_fields does."""
    if n == 1:
        w = 4 / T_s
        q = s + (2 * g + 1) * w
        c_r = w * (s + g * w) ** 2 / (b0 * s * q)
        c_y = g * w**2 * ((g + 2) * s + g * w) / (b0 * s * q)
        kp = (4 * g**2 + 8 * g) / (b0 * T_s * (2 * g + 1))
        ki = 16 * g**2 / (b0 * T_s**2 * (2 * g + 1))
        Tf = T_s / (8 * g + 4)
        return w, c_r, c_y, (kp, ki, sp.S(0), Tf, w / (b0 * kp), sp.S(1)), 1 / (Tf * s + 1)
    w = 6 / T_s
    q = s**2 + (3 * g + 2) * w * s + (3 * g**2 + 6 * g + 1) * w**2
    c_r = w**2 * (s + g * w) ** 3 / (b0 * s * q)
    c_y = g * w**3 * ((g**2 + 6 * g + 3) * s**2 + (2 * g**2 + 3 * g) * w * s + g**2 * w**2) / (b0 * s * q)
    r = 3 * g**2 + 6 * g + 1
    kp = (72 * g**3 + 108 * g**2) / (b0 * T_s**2 * r)
    ki = 216 * g**3 / (b0 * T_s**3 * r)
    kd = (6 * g**3 + 36 * g**2 + 18 * g) / (b0 * T_s * r)
    Tf, d = T_s / (6 * sp.sqrt(r)), (3 * g + 2) / (2 * sp.sqrt(r))
    fields = (kp, ki, kd, Tf, 36 / (b0 * T_s**2 * kp), d)
    return w**2, c_r, c_y, fields, 1 / (Tf**2 * s**2 + 2 * d * Tf * s + 1)


class TestSymbolicIdentity:
    """The paper's identity at every tuning, with T_s, g and b0 as symbols: what verify's
    equivalence, set-point and damping lines check at one tuning holds at all of them."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_adrc_is_the_weighted_filtered_pid(self, n):
        sp = pytest.importorskip("sympy")
        T_s, g = sp.symbols("T_s g", positive=True)
        b0 = sp.Symbol("b0", real=True, nonzero=True)
        s, z = sp.symbols("s z")
        K_P, c_r, c_y, (kp, ki, kd, Tf, b, d), F = _symbolic_forms(sp, n, T_s, g, b0, s)
        assert sp.cancel(c_y - (kp + ki / s + kd * s) * F) == 0
        assert sp.cancel(b * kp * b0 - K_P) == 0
        # the weighted reference channel b kp + ki/s meets ADRC's C_r at both ends of the axis
        assert sp.cancel(sp.cancel(s * c_r).subs(s, 0) - ki) == 0
        assert sp.cancel(sp.cancel(c_r.subs(s, 1 / z)).subs(z, 0) - b * kp) == 0

        # the symbols restate the code: at an exact point, its float closed forms agree
        point = {T_s: sp.Rational(3, 2), g: 7, b0: sp.Rational(-5, 2)}
        for exact, value in zip((kp, ki, kd, Tf, b, d), _equivalent_fields(n, 1.5, 7.0, -2.5)):
            assert value == pytest.approx(float(exact.subs(point)), rel=1e-14)
        num, den = (sp.Poly(part, s).all_coeffs()[::-1] for part in sp.fraction(sp.cancel(c_y.subs(point))))
        closed = adrc_channels(AdrcDesign(n, 1.5, 7.0, -2.5))[1]
        monic = [float(c / den[-1]) for c in num + den]
        assert closed.num.coeffs + closed.den.coeffs == pytest.approx(monic, rel=1e-14)

    def test_filter_damping_range(self):
        sp = pytest.importorskip("sympy")
        T_s, g = sp.symbols("T_s g", positive=True)
        d = _symbolic_forms(sp, 2, T_s, g, sp.Symbol("b0"), sp.Symbol("s"))[3][5]
        # one stationary point over g > 0, g = 1, where d is 5/(2 sqrt(10)), below both of its limits
        assert sp.solve(sp.diff(d, g), g) == [1]
        assert d.subs(g, 1) == 5 / (2 * sp.sqrt(10))
        assert float(d.subs(g, 1)) == pytest.approx(verify.D_MIN_EXACT, rel=1e-15)
        assert sp.limit(d, g, 0) == 1 and sp.limit(d, g, sp.oo) == sp.sqrt(3) / 2 > d.subs(g, 1)
        # and 1 - d^2 = 3 g (g + 4) / (4 (3 g^2 + 6 g + 1)) > 0, so 0 < d < 1
        assert sp.factor(1 - d**2).is_positive
