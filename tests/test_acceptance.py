"""Acceptance gate: every release criterion with its pinned tolerance.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line via the
conftest hook.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import tf

from adrcpid.adrc import (
    build_adrc,
    extract_cr_cy,
    tune_first_order,
    tune_second_order,
)
from adrcpid.analysis import (
    PlantModel,
    closed_loop,
    gang_of_seven,
    s_plus_t_residual,
    step_sweep,
)
from adrcpid.cli import main
from adrcpid.lti import (
    log_grid,
    ss_to_tf,
    step_response,
    tf_neg,
    tf_residual,
)
from adrcpid.pid_equiv import (
    build_equivalent_controller,
    equivalent_params,
    verify_asymptotes,
)

TS_GRID = (0.5, 1.0, 2.0)
G_GRID = (2.0, 5.0, 10.0, 20.0)
B0_GRID = (0.5, 1.0, 3.0)

K_SWEEP = {1: (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0), 2: (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)}
T_SWEEP = {1: (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0), 2: (0.1, 0.2, 0.5, 1.0, 2.0, 5.0)}

# Sup-norm output gap between the ADRC and equivalent-controller traces,
# taken over the stable cases of each sweep at the figures' 10*T_s horizon.
# Pinned from the simulation oracle; asserted with 1e-9 repeatability.
GOLDEN_TRACE_GAP = {
    (1, "K"): 0.06391969244166246,
    (1, "T"): 0.060106859467967955,
    (2, "K"): 0.0602628642235431,
    (2, "T"): 0.0639903051131786,
}


def criterion(tag):
    def mark(fn):
        fn._criterion = tag
        return fn

    return mark


def design(order, ts=1.0, g=10.0, b0=1.0):
    return tune_first_order(ts, g, b0) if order == 1 else tune_second_order(ts, g, b0)


def nominal_plant(order):
    if order == 1:
        return PlantModel(order=1, K=1.0, T=1.0)
    return PlantModel(order=2, K=1.0, T=1.0, D=1.0)


def controllers(order):
    d = design(order)
    return {
        "adrc": build_adrc(d),
        "equiv": build_equivalent_controller(equivalent_params(d)),
    }


@criterion("1 exact_y_channel_equivalence")
def test_criterion_1_exact_y_channel_equivalence():
    for order in (1, 2):
        for ts in TS_GRID:
            for g in G_GRID:
                for b0 in B0_GRID:
                    d = design(order, ts, g, b0)
                    _, c_y = extract_cr_cy(build_adrc(d))
                    assert tf_residual(c_y, equivalent_params(d).feedback_tf()) < 1e-9


@criterion("2 reference_channel_coefficients")
def test_criterion_2_reference_channel_coefficients():
    c_r, _ = extract_cr_cy(build_adrc(tune_first_order(1, 10, 1)))
    printed = tf((6400, 320, 4), (0, 84, 1))
    assert tf_residual(c_r, printed) < 1e-9


@criterion("3 tuned_parameter_values")
def test_criterion_3_tuned_parameter_values(capsys):
    # exact rational oracle by direct substitution of T_s=1, g=10, b0=1
    p1 = equivalent_params(tune_first_order(1, 10, 1))
    exact1 = {
        "kp": Fraction(480, 21),
        "ki": Fraction(1600, 21),
        "Tf": Fraction(1, 84),
        "b": Fraction(7, 40),
    }
    for name, exact in exact1.items():
        assert abs(getattr(p1, name) - float(exact)) <= 1e-12 * float(exact)

    p2 = equivalent_params(tune_second_order(1, 10, 1))
    exact2 = {
        "kp": Fraction(82800, 361),
        "ki": Fraction(216000, 361),
        "kd": Fraction(9780, 361),
        "Tf": Fraction(1, 114),
        "d": Fraction(16, 19),
        "b": Fraction(12996, 82800),
    }
    for name, exact in exact2.items():
        assert abs(getattr(p2, name) - float(exact)) <= 1e-12 * float(exact)

    # the tune command reports the same numbers at 10 significant digits
    assert main(["tune", "--order", "1", "--ts", "1", "--g", "10", "--b0", "1"]) == 0
    out = capsys.readouterr().out
    for name, exact in exact1.items():
        line = next(l for l in out.splitlines() if l.strip().startswith(f"{name} "))
        assert float(line.split("=")[1]) == pytest.approx(float(exact), rel=1e-9)


@criterion("4 asymptote_identities")
def test_criterion_4_asymptote_identities():
    for order in (1, 2):
        d = design(order)
        c_r, _ = extract_cr_cy(build_adrc(d))
        low, high = verify_asymptotes(c_r, equivalent_params(d))
        assert low < 1e-4 and high < 1e-4, (order, low, high)


@criterion("5 gang_of_four_identity")
def test_criterion_5_gang_of_four_identity():
    omega = np.array(log_grid(1e-2, 1e3, 300))
    for order in (1, 2):
        plant = nominal_plant(order)
        ctrls = controllers(order)
        ga = gang_of_seven(plant, ctrls["adrc"])
        ge = gang_of_seven(plant, ctrls["equiv"])
        for name in ("S", "PS", "CS", "T"):
            ma = np.abs(np.asarray(ga.named()[name](1j * omega)))
            me = np.abs(np.asarray(ge.named()[name](1j * omega)))
            assert np.max(np.abs(ma - me) / np.maximum(ma, me)) < 1e-8


@criterion("6 robustness_sweeps")
def test_criterion_6_robustness_sweeps():
    for order in (1, 2):
        plant = nominal_plant(order)
        ctrls = controllers(order)
        for parameter, values in (("K", K_SWEEP[order]), ("T", T_SWEEP[order])):
            adrc_sweep, equiv_sweep = (
                step_sweep(plant, parameter, values, ctrls[name], t_end=10.0) for name in ("adrc", "equiv")
            )
            gap = 0.0
            for adrc_case, equiv_case in zip(adrc_sweep.cases, equiv_sweep.cases, strict=True):
                assert adrc_case.value == equiv_case.value
                assert adrc_case.stable == equiv_case.stable
                if adrc_case.stable:
                    delta = np.max(
                        np.abs(adrc_case.table.columns["y"] - equiv_case.table.columns["y"])
                    )
                    gap = max(gap, float(delta))
            assert gap == pytest.approx(GOLDEN_TRACE_GAP[(order, parameter)], abs=1e-9)

            # final-value check on a horizon long enough for the slowest
            # stable mode (order 2, K=0.1: Re lambda ~ -0.69) to decay below
            # the tolerance; diverging cases stay flagged, never raise
            for ctrl in ctrls.values():
                final_sweep = step_sweep(plant, parameter, values, ctrl, t_end=30.0)
                for case in final_sweep.cases:
                    if case.stable:
                        assert abs(case.table.columns["y"][-1] - 1.0) < 1e-6
                    else:
                        assert order == 2 and parameter == "T"


@criterion("7 nominal_settling_time")
def test_criterion_7_nominal_settling_time():
    loop = closed_loop(nominal_plant(1), build_adrc(tune_first_order(1, 10, 1)))
    table = step_response(loop, input=0, t_end=2.0, n_steps=8000)
    y = table.columns["y"]
    inside = np.abs(y - 1.0) <= 0.02
    entry = int(np.argmax(inside))
    assert np.all(inside[entry:]), "response leaves the 2% band after entering"
    assert table.t[entry] <= 1.3


@criterion("8 structural_properties")
def test_criterion_8_structural_properties():
    for order in (1, 2):
        g7 = gang_of_seven(nominal_plant(order), controllers(order)["adrc"])
        assert s_plus_t_residual(g7) < 1e-9

    lower = 5 / (2 * math.sqrt(10))
    gs = np.logspace(np.log10(0.1), np.log10(100.0), 201)
    ds = np.array([equivalent_params(tune_second_order(1, float(g), 1)).d for g in gs])
    assert np.all(ds >= lower - 1e-12)
    assert np.all(ds < 1.0)
    assert abs(ds.min() - lower) < 1e-3
    assert gs[int(np.argmin(ds))] == pytest.approx(1.0, rel=0.05)

    for ts in TS_GRID:
        for g in G_GRID:
            for b0 in B0_GRID:
                p1 = equivalent_params(tune_first_order(ts, g, b0))
                assert abs(p1.b * p1.kp * b0 - 4.0 / ts) <= 1e-12 * (4.0 / ts)
                p2 = equivalent_params(tune_second_order(ts, g, b0))
                assert abs(p2.b * p2.kp * b0 - 36.0 / ts**2) <= 1e-12 * (36.0 / ts**2)


@criterion("9 realization_fidelity")
def test_criterion_9_realization_fidelity():
    p1 = equivalent_params(tune_first_order(1, 10, 1))
    pif = build_equivalent_controller(p1)
    assert tf_residual(ss_to_tf(pif.ss, 1, 0), tf_neg(p1.feedback_tf())) < 1e-9
    assert tf_residual(ss_to_tf(pif.ss, 0, 0), p1.reference_tf()) < 1e-9

    p2 = equivalent_params(tune_second_order(1, 10, 1))
    pidf = build_equivalent_controller(p2)
    assert tf_residual(ss_to_tf(pidf.ss, 1, 0), tf_neg(p2.feedback_tf())) < 1e-9
    assert tf_residual(ss_to_tf(pidf.ss, 0, 0), p2.reference_tf()) < 1e-9


@criterion("10 figure_determinism")
def test_criterion_10_figure_determinism(tmp_path):
    for fig_id in (1, 7):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{fig_id}{tag}"
            assert main(["figure", str(fig_id), "--out", str(out)]) == 0
            runs.append(
                (
                    (out / f"fig{fig_id}.csv").read_bytes(),
                    (out / f"fig{fig_id}.svg").read_bytes(),
                )
            )
        assert runs[0] == runs[1]
