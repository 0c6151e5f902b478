import dataclasses
import math

import numpy as np
import pytest
from conftest import TUNINGS, log_uniform
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrcpid import analysis, lti
from adrcpid.adrc import (
    AdrcDesign,
    TwoInputController,
    build_adrc,
    extract_cr_cy,
    tune_first_order,
    tune_second_order,
)
from adrcpid.analysis import (
    GANG_MINREAL_TOL,
    PlantModel,
    closed_loop,
    gang_of_seven,
    loop_margins,
    s_plus_t_residual,
    step_sweep,
)
from adrcpid.lti import (
    AlgebraicLoopError,
    RationalTransferFunction,
    StateSpaceModel,
    is_stable,
    log_grid,
    step_response,
    tf_minreal,
    tf_residual,
)
from adrcpid.pid_equiv import (
    PidParams,
    build_equivalent_controller,
    equivalent_params,
    pidf_from_adrc,
    pif_from_adrc,
)

NOMINAL_STEP_GAP = {1: 0.04028012544899118, 2: 0.05240762629027035}


@pytest.fixture(scope="module")
def first_order():
    d = tune_first_order(1, 10, 1)
    return {
        "design": d,
        "plant": PlantModel(order=1, K=1, T=1),
        "adrc": build_adrc(d),
        "equiv": build_equivalent_controller(pif_from_adrc(d)),
    }


@pytest.fixture(scope="module")
def second_order():
    d = tune_second_order(1, 10, 1)
    return {
        "design": d,
        "plant": PlantModel(order=2, K=1, T=1, D=1),
        "adrc": build_adrc(d),
        "equiv": build_equivalent_controller(pidf_from_adrc(d)),
    }


# plant gain of either sign up to a decade off nominal, lag up to two decades off, damping 0.5-2
PLANTS = st.tuples(
    st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(0.1, 10.0)),
    log_uniform(1e-2, 1e2),
    log_uniform(0.5, 2.0),
)


def dc_gains(loop):
    # exact steady-state map: D - C A^-1 B
    return loop.D - loop.C @ np.linalg.solve(loop.A, loop.B)


class TestPlantModel:
    def test_first_order_tf(self):
        p = PlantModel(order=1, K=2, T=3)
        assert p.tf.num.coeffs == (2.0,)
        assert p.tf.den.coeffs == (1.0, 3.0)

    def test_second_order_tf(self):
        p = PlantModel(order=2, K=1, T=1, D=1)
        assert p.tf.den.coeffs == (1.0, 2.0, 1.0)
        assert sorted(p.tf.poles().real) == pytest.approx([-1.0, -1.0], abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlantModel(order=3, K=1, T=1)
        with pytest.raises(ValueError):
            PlantModel(order=1, K=1, T=0)
        with pytest.raises(ValueError):
            PlantModel(order=2, K=1, T=1)  # missing damping
        for order, K, T, D in (
            (1, math.nan, 1, None), (1, math.inf, 1, None), (1, 1, math.nan, None), (1, 1, math.inf, None),
            (2, 1, 1, 0), (2, 1, 1, math.nan), (2, 1, 1, math.inf),
        ):
            with pytest.raises(ValueError):
                PlantModel(order=order, K=K, T=T, D=D)


class TestClosedLoop:
    def test_nominal_first_order_is_stable(self, first_order):
        loop = closed_loop(first_order["plant"], first_order["adrc"])
        assert is_stable(loop)
        assert loop.input_labels == ("r", "d_u", "n")
        assert loop.output_labels == ("y", "u")

    def test_reference_dc_gain_is_one(self, first_order):
        loop = closed_loop(first_order["plant"], first_order["adrc"])
        gains = dc_gains(loop)
        assert gains[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_disturbance_dc_gain_is_zero(self, first_order):
        loop = closed_loop(first_order["plant"], first_order["adrc"])
        gains = dc_gains(loop)
        assert gains[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_second_order_dc_gains(self, second_order):
        loop = closed_loop(second_order["plant"], second_order["adrc"])
        gains = dc_gains(loop)
        assert gains[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert gains[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_plant_feedthrough(self, first_order):
        class BiproperPlant:
            def to_ss(self):
                return StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])

        with pytest.raises(AlgebraicLoopError):
            closed_loop(BiproperPlant(), first_order["adrc"])

    def test_settles_within_band_by_deadline(self, first_order):
        loop = closed_loop(first_order["plant"], first_order["adrc"])
        table = step_response(loop, input=0, t_end=2.0, n_steps=4000)
        y = table.columns["y"]
        inside = np.abs(y - 1.0) <= 0.02
        entry = int(np.argmax(inside))
        assert np.all(inside[entry:])
        assert table.t[entry] <= 1.3

    @settings(max_examples=100)
    @given(TUNINGS, PLANTS)
    def test_blocks_bitwise_equal_to_np_block(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        plant = PlantModel(design.order, K, T, D if design.order == 2 else None)
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            loop = closed_loop(plant, c)
            for name, want in zip("ABCD", _np_block_loop(plant, c)):
                got = getattr(loop, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _np_block_loop(plant, c):
    """The closed loop [r, d_u, n] -> [y, u] assembled with np.block."""
    p, cs = plant.to_ss(), c.ss
    Ap, Bp, Cp = p.A, p.B, p.C
    Ac, Bc, Cc, Dc = cs.A, cs.B, cs.C, cs.D
    n_c = cs.n_states
    Bc_r, Bc_y = Bc[:, :1], Bc[:, 1:]
    Dc_r, Dc_y = float(Dc[0, 0]), float(Dc[0, 1])
    A = np.block([[Ap + Dc_y * (Bp @ Cp), Bp @ Cc], [Bc_y @ Cp, Ac]])
    B = np.block([[Dc_r * Bp, Bp, Dc_y * Bp], [Bc_r, np.zeros((n_c, 1)), Bc_y]])
    C = np.block([[Cp, np.zeros((1, n_c))], [Dc_y * Cp, Cc]])
    D = np.array([[0.0, 0.0, 0.0], [Dc_r, 0.0, Dc_y]])
    return A, B, C, D


class TestGangOfSeven:
    def test_unit_feedback_sensitivity(self):
        # P = 1/(s+1) with C_r = C_y = 1 gives S = (s+1)/(s+2)
        ctrl = TwoInputController(
            StateSpaceModel(
                np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
                np.array([[1.0, -1.0]]), ("r", "y"), ("u",),
            )
        )
        g = gang_of_seven(PlantModel(order=1, K=1, T=1), ctrl)
        assert tf_residual(g.S, RationalTransferFunction.from_coeffs((1, 1), (2, 1))) < 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_s_plus_t_identity(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        for ctrl in ("adrc", "equiv"):
            g = gang_of_seven(case["plant"], case[ctrl])
            assert s_plus_t_residual(g) < 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    def test_gang_of_four_identical_between_controllers(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        ga = gang_of_seven(case["plant"], case["adrc"])
        ge = gang_of_seven(case["plant"], case["equiv"])
        omega = log_grid(1e-2, 1e3, 300)
        for name in ("S", "PS", "CS", "T"):
            ma = np.abs(np.asarray(ga.named()[name](1j * omega)))
            me = np.abs(np.asarray(ge.named()[name](1j * omega)))
            assert np.max(np.abs(ma - me) / np.maximum(ma, me)) < 1e-8

    def test_zero_measurement_channel_rejected(self, first_order):
        # C_y = 0 makes the denominator nc*chi of SF_r and PSF_r zero
        c = build_equivalent_controller(PidParams(0.0, 0.0, 0.0, 0.1, 1.0))
        with pytest.raises(ValueError, match="denominator must not be the zero polynomial"):
            gang_of_seven(first_order["plant"], c)

    def test_reference_weighted_functions_differ_between_controllers(self, first_order):
        # the r-channel approximation is the one place the controllers differ
        ga = gang_of_seven(first_order["plant"], first_order["adrc"])
        ge = gang_of_seven(first_order["plant"], first_order["equiv"])
        omega = log_grid(1e-1, 1e2, 100)
        ta = np.abs(np.asarray(ga.TF_r(1j * omega)))
        te = np.abs(np.asarray(ge.TF_r(1j * omega)))
        assert np.max(np.abs(ta - te) / np.maximum(ta, te)) > 1e-3


def _reference_gang(plant, c):
    """The gang as seven tf_minreal calls on the expanded products."""
    P = plant.tf.canonicalized()
    c_r, c_y = extract_cr_cy(c)
    np_, dp = P.num, P.den
    nr, nc, dc = c_r.num, c_y.num, c_y.den
    chi = dp * dc + np_ * nc

    def mr(num, den):
        return tf_minreal(RationalTransferFunction(num, den), GANG_MINREAL_TOL)

    return {
        "S": mr(dp * dc, chi),
        "PS": mr(np_ * dc, chi),
        "CS": mr(nc * dp, chi),
        "T": mr(np_ * nc, chi),
        "SF_r": mr(dp * dc * nr, nc * chi),
        "PSF_r": mr(np_ * dc * nr, nc * chi),
        "TF_r": mr(np_ * nr, chi),
    }


def _assert_gang_matches_reference(plant, c):
    want = _reference_gang(plant, c)
    for name, tf in gang_of_seven(plant, c).named().items():
        for got, ref in ((tf.num, want[name].num), (tf.den, want[name].den)):
            assert np.array(got.coeffs).tobytes() == np.array(ref.coeffs).tobytes(), name


class TestGangFactorRoots:
    """The factor-root cancellation test gives the bits of minreal on the products."""

    @settings(max_examples=100)
    @given(TUNINGS, PLANTS)
    # slow plants whose factor roots keep a zero-pole pair of SF_r or PSF_r
    # just outside GANG_MINREAL_TOL, while the product's roots fall inside it
    @example(
        (2, 277.04016793641597, 8.72197406907735, 10.44564370789131),
        (0.8570169159768742, 574.6848372750209, 1.0641134210440266),
    )
    @example(
        (2, 525.9936700474275, 7.856861902127318, -8.36559317458831),
        (-0.5951691781089218, 500.6969422962409, 0.8897818157730942),
    )
    def test_bitwise_equal_to_minreal_on_products(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        plant = PlantModel(design.order, K, T, D if design.order == 2 else None)
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            _assert_gang_matches_reference(plant, c)

    def test_plant_pole_on_a_zero_of_c_y_cancels_like_the_reference(self, first_order):
        c = first_order["adrc"]
        (zero,) = extract_cr_cy(c)[1].num.roots()
        plant = PlantModel(order=1, K=1, T=-1.0 / zero.real)
        # the closed-loop polynomial shares the plant pole, so S = dp dc / chi loses it
        g = gang_of_seven(plant, c)
        assert g.S.den.degree == 2
        _assert_gang_matches_reference(plant, c)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_plant_gain_gives_zero_members_like_the_reference(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        plant = dataclasses.replace(case["plant"], K=0.0)
        for ctrl in ("adrc", "equiv"):
            g = gang_of_seven(plant, case[ctrl])
            for name in ("PS", "T", "PSF_r", "TF_r"):
                assert g.named()[name].num.is_zero, name
            _assert_gang_matches_reference(plant, case[ctrl])


class TestSharedWorkCounts:
    """Call counts on the default order-2 design; per-member work coming back fails here."""

    @pytest.fixture
    def default_order2(self):
        design = tune_second_order(1.0, 10.0, 1.0)
        return design, PlantModel(order=2, K=1.0, T=1.0, D=1.0)

    def test_split_runs_the_resolvent_once(self, monkeypatch, default_order2):
        design, _ = default_order2
        calls = []
        resolvent = lti._resolvent
        monkeypatch.setattr(lti, "_resolvent", lambda A: calls.append(A) or resolvent(A))
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            calls.clear()
            extract_cr_cy(c)
            assert len(calls) == 1

    def test_gang_tests_root_pairs_only_inside_minreal(self, monkeypatch, default_order2):
        design, nominal = default_order2
        inside, outside, minreal_calls = [], [], []
        has_close_pair, minreal = lti.has_close_pair, analysis.tf_minreal

        def counted_pair_test(*args, **kwargs):
            (inside if minreal_calls and minreal_calls[-1] else outside).append(args)
            return has_close_pair(*args, **kwargs)

        def counted_minreal(*args, **kwargs):
            minreal_calls.append(True)
            try:
                return minreal(*args, **kwargs)
            finally:
                minreal_calls[-1] = False

        monkeypatch.setattr(lti, "has_close_pair", counted_pair_test)
        monkeypatch.setattr(analysis, "has_close_pair", counted_pair_test, raising=False)
        monkeypatch.setattr(analysis, "tf_minreal", counted_minreal)
        c = build_adrc(design)
        zero = extract_cr_cy(c)[1].num.roots()[0]
        # the nominal loop cancels nothing; plant poles on the complex zeros of C_y do
        on_zeros = PlantModel(order=2, K=1.0, T=1.0 / abs(zero), D=-zero.real / abs(zero))
        for plant in (nominal, on_zeros):
            for ctrl in (c, build_equivalent_controller(equivalent_params(design))):
                gang_of_seven(plant, ctrl)
        assert outside == []
        assert 0 < len(inside) <= len(minreal_calls)

    def test_two_gangs_of_one_plant_find_its_roots_once(self, monkeypatch, default_order2):
        design, _ = default_order2
        # T != 1, so that each canonicalization of the plant makes a new denominator
        plant = PlantModel(order=2, K=1.0, T=2.0, D=0.7)
        dp = plant.tf.canonicalized().den
        dp_column = -np.array(dp.coeffs[:-1]) / dp.coeffs[-1]  # last column of its companion matrix
        companions = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: companions.append(m.copy()) or eigvals(m))
        for ctrl in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            gang_of_seven(plant, ctrl)
        assert sum(m.shape == (2, 2) and np.array_equal(m[:, -1], dp_column) for m in companions) == 1


def loop_tf(P, c_y):
    """The loop transfer function P*C_y, its polynomials multiplied out."""
    return RationalTransferFunction(P.num * c_y.num, P.den * c_y.den)


class TestLoopMeasures:
    def test_margins_against_analytic_oracle(self):
        # L = 1/(s(s+1)(s+2)): phase hits -180 deg at omega = sqrt(2), where
        # |L| = 1/6, so the gain margin is exactly 6
        L = RationalTransferFunction.from_coeffs((1,), (0, 2, 3, 1))
        m = loop_margins(L)
        assert m.gain_margin == pytest.approx(6.0, rel=1e-6)
        assert m.phase_crossover == pytest.approx(np.sqrt(2.0), rel=1e-6)
        assert 0 < m.phase_margin_deg < 90

    def test_first_order_loop_has_infinite_gain_margin(self, first_order):
        P = first_order["plant"].tf
        _, c_y = extract_cr_cy(first_order["adrc"])
        m = loop_margins(loop_tf(P, c_y))
        assert m.gain_margin == np.inf
        assert m.phase_margin_deg > 45

    @pytest.mark.parametrize("order", [1, 2])
    def test_equal_margins_between_controllers(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        P = case["plant"].tf
        la = loop_tf(P, extract_cr_cy(case["adrc"])[1])
        le = loop_tf(P, extract_cr_cy(case["equiv"])[1])
        ma, me = loop_margins(la), loop_margins(le)
        assert ma.phase_margin_deg == pytest.approx(me.phase_margin_deg, rel=1e-6)
        if np.isinf(ma.gain_margin):
            assert np.isinf(me.gain_margin)
        else:
            assert ma.gain_margin == pytest.approx(me.gain_margin, rel=1e-6)

    @pytest.mark.parametrize("order", [1, 2])
    def test_equal_sensitivity_peaks(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        omega = log_grid(1e-2, 1e3, 400)
        ms_a = np.max(np.abs(gang_of_seven(case["plant"], case["adrc"]).S(1j * omega)))
        ms_e = np.max(np.abs(gang_of_seven(case["plant"], case["equiv"]).S(1j * omega)))
        assert ms_a == pytest.approx(ms_e, rel=1e-6)
        assert ms_a > 1.0


class TestStepSweep:
    def test_first_order_gain_sweep_all_stable(self, first_order):
        sweep = step_sweep(
            first_order["plant"], "K", (0.1, 0.2, 0.5, 1, 2, 5, 10),
            {"adrc": first_order["adrc"], "equiv": first_order["equiv"]},
            t_end=10.0,
        )
        assert all(case.stable for case in sweep.cases)
        spans = {case.table.t[-1] for case in sweep.cases}
        assert spans == {10.0}

    def test_low_gain_case_stable(self, first_order):
        sweep = step_sweep(
            first_order["plant"], "K", (0.1,),
            {"adrc": first_order["adrc"], "equiv": first_order["equiv"]},
            t_end=10.0,
        )
        assert sweep.case(0.1, "adrc").stable
        assert sweep.case(0.1, "equiv").stable

    def test_second_order_time_constant_sweep_flags_unstable(self, second_order):
        sweep = step_sweep(
            second_order["plant"], "T", (0.1, 0.2, 0.5, 1, 2, 5),
            {"adrc": second_order["adrc"], "equiv": second_order["equiv"]},
            t_end=10.0,
        )
        unstable = {case.value for case in sweep.cases if not case.stable}
        assert unstable == {0.1, 0.2, 5.0}
        # divergence is recorded, not raised
        diverged = sweep.case(0.2, "adrc").table.columns["y"]
        assert not np.all(np.isfinite(diverged)) or np.max(np.abs(diverged)) > 1e3

    def test_stable_cases_converge(self, first_order):
        # horizon long enough for the slowest stable mode to decay below 1e-6
        sweep = step_sweep(
            first_order["plant"], "T", (0.1, 1.0, 10.0),
            {"adrc": first_order["adrc"]},
            t_end=30.0,
        )
        for case in sweep.cases:
            assert case.stable
            assert abs(case.table.columns["y"][-1] - 1.0) < 1e-6

    def test_nominal_gap_between_controllers_matches_golden(self, first_order, second_order):
        for order, case in ((1, first_order), (2, second_order)):
            ya = step_response(closed_loop(case["plant"], case["adrc"]), 0, 10.0, 4000)
            ye = step_response(closed_loop(case["plant"], case["equiv"]), 0, 10.0, 4000)
            gap = float(np.max(np.abs(ya.columns["y"] - ye.columns["y"])))
            assert gap == pytest.approx(NOMINAL_STEP_GAP[order], abs=1e-9)

    def test_rejects_empty_values(self, first_order):
        with pytest.raises(ValueError):
            step_sweep(first_order["plant"], "K", (), {"adrc": first_order["adrc"]}, 10.0)

    def test_rejects_unknown_parameter(self, first_order):
        with pytest.raises(ValueError):
            step_sweep(first_order["plant"], "D", (1.0,), {"adrc": first_order["adrc"]}, 10.0)


class TestBodeSet:
    def test_measurement_channel_rolls_off(self, first_order):
        _, c_y = extract_cr_cy(first_order["adrc"])
        omega = log_grid(1e-2, 1e4, 600)
        mag = np.abs(c_y(1j * omega))
        assert mag[np.searchsorted(omega, 1e4) - 1] < mag[np.searchsorted(omega, 1e2)]

    def test_integrator_and_rolloff_slopes(self, first_order):
        # -20 dB/decade at both ends: integral action below, filter above
        _, c_y = extract_cr_cy(first_order["adrc"])
        omega = np.array([1e-3, 1e-2, 1e5, 1e6])
        mag = np.abs(np.asarray(c_y(1j * omega)))
        assert mag[0] / mag[1] == pytest.approx(10.0, rel=0.02)
        assert mag[2] / mag[3] == pytest.approx(10.0, rel=0.02)

    def test_equivalent_measurement_channel_identical(self, first_order):
        _, cy_adrc = extract_cr_cy(first_order["adrc"])
        _, cy_equiv = extract_cr_cy(first_order["equiv"])
        omega = log_grid(1e-2, 1e4, 600)
        ma, me = np.abs(cy_adrc(1j * omega)), np.abs(cy_equiv(1j * omega))
        assert np.max(np.abs(ma - me) / ma) < 1e-8

    def test_phase_unwrapped(self, second_order):
        _, c_y = extract_cr_cy(second_order["adrc"])
        phase = np.degrees(np.unwrap(np.angle(c_y(1j * log_grid(1e-2, 1e4, 600)))))
        assert np.max(np.abs(np.diff(phase))) < 90.0
