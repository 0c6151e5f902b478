import sys
from functools import partial

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import TUNINGS
from hypothesis import example, given, settings

from adrcpid import adrc, verify
from adrcpid.design import AdrcDesign, adrc_channels, equivalent_params
from adrcpid.lti import log_grid
from adrcpid.pid_equiv import build_equivalent_controller, reference_channel_gap, verify_asymptotes


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
        # off the equivalence grid, so every design at (0.3, 25, -4) is the user's
        built = []
        original = adrc.build_adrc

        def counting(design):
            built.append((design.order, design.T_s, design.g, design.b0))
            return original(design)

        _patch_build_adrc(monkeypatch, counting)
        checks = verify.run_verification(ts=0.3, g=25.0, b0=-4.0)
        assert all(check.passed for check in checks)
        assert [key for key in built if key[1:] == (0.3, 25.0, -4.0)] == [(1, 0.3, 25.0, -4.0), (2, 0.3, 25.0, -4.0)]

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


@pytest.mark.parametrize("g", [1e4, 1e6, 1e10])
def test_identity_checks_pass_at_high_g(g):
    # at the default T_s and b0, where a numeric split of the ADRC realization loses about g**2 * eps
    checks = [check for check in verify.run_verification(g=g) if check.name.startswith(IDENTITY_CHECKS)]
    assert len(checks) == 12
    assert [check.name for check in checks if not check.passed] == []


@given(TUNINGS.map(lambda tuning: tuning[1:]))
def test_every_check_but_the_settling_time_passes_across_the_aim3_range(point):
    # settling_time_nominal_order1 is left out: its bound assumes a fast observer and the nominal
    # plant K = +-1 whatever b0 is, and waits on the normalized-time decision (see ROADMAP)
    ts, g, b0 = point
    failed = [check.name for check in verify.run_verification(ts=ts, g=g, b0=b0) if not check.passed]
    assert [name for name in failed if name != "settling_time_nominal_order1"] == []


class TestAdrcRealization:
    def test_passes_on_the_equivalence_grid(self):
        for order in (1, 2):
            assert verify._grid_residuals(order, verify._perturbed_params(order, 1.0))[2] < 1e-9

    def test_detects_forms_that_the_realization_does_not_realize(self):
        design = AdrcDesign(2, 1.0, 10.0, 1.0)
        other = AdrcDesign(2, 1.0, 10.0 * (1 + 1e-8), 1.0)
        mismatched = adrc.TwoInputController(adrc.build_adrc(design).realization, partial(adrc_channels, other))
        assert verify._realization_residual(adrc.build_adrc(design)) < 1e-12
        assert verify._realization_residual(mismatched) > 1e-9
