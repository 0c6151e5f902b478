import numpy as np
import numpy.polynomial.polynomial as npoly
from conftest import TUNINGS
from hypothesis import example, given, settings

from adrcpid import verify
from adrcpid.design import AdrcDesign, equivalent_params
from adrcpid.pid_equiv import build_equivalent_controller


def _fidelity(tuning) -> float:
    params = equivalent_params(AdrcDesign(*tuning))
    return verify._realization_fidelity(params, build_equivalent_controller(params))


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
