import ast
import collections
import functools
import importlib
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from conftest import (
    TUNINGS,
    exact_adrc_split,
    exact_observer_form,
    exact_pidf_rows,
    exact_reference_column,
    exact_split,
    exact_stable,
    exact_step,
    log_uniform,
    mp_stable,
    plant_tf,
    tf,
    tf_to_ss,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adrcpid import analysis as analysis_module
from adrcpid import design as design_module
from adrcpid import pid_equiv as pid_equiv_module
from adrcpid import rows as rows_module
from adrcpid import tf as tf_module
from adrcpid import verify as verify_module
from adrcpid.adrc import (
    AdrcDesign,
    TwoInputController,
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
)
from adrcpid.lti import STEP_HORIZON_FACTOR, StateSpaceModel, step_response, step_sweep
from adrcpid.pid_equiv import (
    PidParams,
    build_equivalent_controller,
    equivalent_params,
)
from adrcpid.tf import (
    Polynomial,
    RationalTransferFunction,
    is_stable,
    log_grid,
    tf_residual,
)

NOMINAL_STEP_GAP = {1: 0.04028012544899118, 2: 0.05240762629027035}

# a tuning and a plant with K < 0 from TestGangProducts, at which PS made as
# k * dc, not 0.0 + k * dc as the convolution makes it, has a -0.0; in the
# closed loop, so does B_c,y k for the zero entries of the PID+F B_c,y
NEGATIVE_K = (
    (2, 525.9936700474275, 7.856861902127318, -8.36559317458831),
    (-0.5951691781089218, 500.6969422962409, 0.8897818157730942),
)


@pytest.fixture(scope="module")
def first_order():
    d = tune_first_order(1, 10, 1)
    return {
        "design": d,
        "plant": PlantModel(order=1, K=1, T=1),
        "adrc": build_adrc(d),
        "equiv": build_equivalent_controller(equivalent_params(d)),
    }


@pytest.fixture(scope="module")
def second_order():
    d = tune_second_order(1, 10, 1)
    return {
        "design": d,
        "plant": PlantModel(order=2, K=1, T=1, D=1),
        "adrc": build_adrc(d),
        "equiv": build_equivalent_controller(equivalent_params(d)),
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
        assert p.canonical_tf.num.coeffs == (2.0 / 3.0,)
        assert p.canonical_tf.den.coeffs == (1.0 / 3.0, 1.0)

    def test_second_order_tf(self):
        p = PlantModel(order=2, K=1, T=1, D=1)
        assert p.canonical_tf.den.coeffs == (1.0, 2.0, 1.0)
        assert sorted(npoly.polyroots(p.canonical_tf.den.coeffs).real) == pytest.approx([-1.0, -1.0], abs=1e-7)

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

    @settings(max_examples=300)
    @given(
        st.sampled_from((1, 2)),
        st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-320, 1e308)),
        log_uniform(1e-320, 1e308),
        log_uniform(1e-320, 1e308),
    )
    @example(2, 1.0, 1e-162, 1.0)  # T**2 underflows to 0
    @example(2, 1.0, 1e155, 1.0)  # T**2 overflows
    @example(1, 1e300, 1e-10, None)  # K/T overflows
    @example(2, 1.0, 1e-100, 1e-300)  # 2 D T underflows to 0, T**2 does not
    def test_accepts_exactly_the_plants_with_representable_coefficients(self, order, K, T, D):
        """Finite coefficients as written and divided by the denominator's
        lead, and nonzero denominator coefficients; then the lead is 1.0."""
        D = D if order == 2 else None
        try:
            den = (1.0, T) if order == 1 else (1.0, 2.0 * D * T, T**2)
        except OverflowError:
            den = (math.inf,)
        monic = [c / den[-1] for c in (K, *den)] if all(den) else [math.nan]
        if not (all(map(math.isfinite, (K, *den, *monic))) and all(monic[1:])):
            with pytest.raises(ValueError, match="is out of range"):
                PlantModel(order, K, T, D)
            return
        assert PlantModel(order, K, T, D).canonical_tf.den.leading == 1.0

    def test_fast_second_order_plant_keeps_both_states(self):
        # T**2 = 1e-14 is tiny next to the other denominator coefficients, and still a state
        p = PlantModel(order=2, K=1, T=1e-7, D=1)
        assert p.canonical_tf.den.coeffs == (1.0 / 1e-7**2, 2e-7 / 1e-7**2, 1.0)
        c = build_adrc(tune_second_order(1.0, 10.0, 1.0))
        assert closed_loop(p, c).n_states == 2 + len(c.realization[0])


class TestClosedLoop:
    def test_nominal_first_order_is_stable(self, first_order):
        loop = closed_loop(first_order["plant"], first_order["adrc"])
        assert is_stable(gang_of_seven(first_order["plant"], first_order["adrc"]).S.den)
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
    @example(*NEGATIVE_K)
    def test_blocks_bitwise_equal_to_np_block(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        plant = PlantModel(design.order, K, T, D if design.order == 2 else None)
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            _assert_loop_equal_to_np_block(plant, c)

    @settings(max_examples=100)
    @given(st.sampled_from((1, 2)), PLANTS, st.integers(0, 3), st.data())
    def test_blocks_bitwise_equal_to_np_block_with_direct_terms(self, order, plant, n_c, data):
        # any finite controller, with direct terms from r and y of either sign and signed zeros
        entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0)))
        A, B, C, D = (
            data.draw(hnp.arrays(np.float64, shape, elements=entries)) for shape in ((n_c, n_c), (n_c, 2), (1, n_c), (1, 2))
        )
        K, T, D_p = plant
        plant = PlantModel(order, K, T, D_p if order == 2 else None)
        _assert_loop_equal_to_np_block(plant, TwoInputController((A, B, C, D), None))


def _assert_loop_equal_to_np_block(plant, c):
    loop = closed_loop(plant, c)
    for name, want in zip("ABCD", _np_block_loop(plant, c)):
        got = getattr(loop, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _np_block_loop(plant, c):
    """The closed loop [r, d_u, n] -> [y, u] assembled with np.block."""
    p, cs = tf_to_ss(plant_tf(plant)), StateSpaceModel(*c.realization)
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
        one = Polynomial((1.0,))
        ctrl = TwoInputController(
            (np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), np.array([[1.0, -1.0]])),
            lambda alpha: (RationalTransferFunction(one, one), RationalTransferFunction(one, one)),
        )
        g = gang_of_seven(PlantModel(order=1, K=1, T=1), ctrl)
        assert tf_residual(g.S, tf((1, 1), (2, 1))) < 1e-12

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
        omega = np.array(log_grid(1e-2, 1e3, 300))
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
        omega = np.array(log_grid(1e-1, 1e2, 100))
        ta = np.abs(np.asarray(ga.TF_r(1j * omega)))
        te = np.abs(np.asarray(ge.TF_r(1j * omega)))
        assert np.max(np.abs(ta - te) / np.maximum(ta, te)) > 1e-3


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, a in enumerate(rows[0]))


def _mp_char_poly(A):
    """Characteristic polynomial of the rows A, ascending, in 50-digit arithmetic.

    Faddeev-LeVerrier for s**1 .. s**n, and (-1)**n det(A) by cofactors for
    s**0, so that a zero row or column of A gives an exact 0.
    """
    with mpmath.workdps(50):
        n = len(A)
        M = mpmath.matrix([list(row) for row in A])
        char = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
        N = mpmath.eye(n)
        for k in range(1, n):
            if k > 1:
                N = M * N + char[n - k + 1] * mpmath.eye(n)
            AN = M * N
            char[n - k] = -sum(AN[i, i] for i in range(n)) / k
        char[0] = (-1) ** n * _cofactor_det([[mpmath.mpf(a) for a in row] for row in A])
        return char


def _controllers(design):
    return build_adrc(design), build_equivalent_controller(equivalent_params(design))


class TestExactStructure:
    """The integrator of every realization gives both channels an exact pole at s = 0."""

    @settings(max_examples=100)
    @given(TUNINGS)
    def test_controller_channels_have_an_exact_pole_at_zero(self, tuning):
        for c in _controllers(AdrcDesign(*tuning)):
            c_r, c_y = extract_cr_cy(c)
            assert c_r.den.coeffs[0] == 0.0 and c_y.den.coeffs[0] == 0.0

    @settings(max_examples=100)
    @given(TUNINGS)
    def test_characteristic_polynomial_matches_50_digits(self, tuning):
        for c in _controllers(AdrcDesign(*tuning)):
            char, _ = rows_module._resolvent(c.realization[0])
            for got, want in zip(char, _mp_char_poly(c.realization[0]), strict=True):
                assert abs(got - want) <= 1e-9 * abs(want), (got, want)

    @settings(max_examples=100)
    @given(TUNINGS)
    def test_row_split_is_within_its_roundings_of_the_exact_split(self, tuning):
        for c in _controllers(AdrcDesign(*tuning)):
            A, B, (C,), (D,) = c.realization
            m = len(A)
            exact_rows = [[list(map(Fraction, row)) for row in rows] for rows in (A, B)] + [
                list(map(Fraction, row)) for row in (C, D)
            ]
            exact, scale = exact_split(*exact_rows), exact_split(*exact_rows, magnitudes=True)
            c_r, minus_c_y = rows_module._split(c.realization)
            # the integrator's exact zero column makes det(A), and so char[0], exactly 0.0
            assert c_r.den is minus_c_y.den and c_r.den.coeffs[0] == 0.0
            # the j-th matrix of the recursion takes 2 m j roundings (each step: a sum of m
            # products, m; its trace, m - 1 more; the added diagonal, 1), a coefficient of
            # d char + c N[k] b 2m + 1 more, so at most 2 m^2 + 1; the divisions by k = 1, 2 are exact
            k = 2 * m * m + 1
            bound = Fraction(k, 2**53) / (1 - Fraction(k, 2**53))
            got = (c_r.num.coeffs, [-x for x in minus_c_y.num.coeffs], c_r.den.coeffs)
            for coeffs, want, most in zip(got, exact, scale, strict=True):
                assert len(coeffs) <= len(want)  # trailing zeros are trimmed
                for x, value, magnitude in zip([*coeffs, *[0.0] * len(want)], want, most):
                    assert abs(Fraction(x) - value) <= bound * magnitude, (x, float(value))

    @settings(max_examples=100)
    @given(TUNINGS)
    def test_sensitivity_keeps_its_degree(self, tuning):
        design = AdrcDesign(*tuning)
        n = design.order
        # a lag at the design's own time scale, high-frequency gain b0/s**n
        plant = PlantModel(n, design.b0 * design.T_s**n, design.T_s, 1.0 if n == 2 else None)
        for c in _controllers(design):
            S = gang_of_seven(plant, c).S
            assert (S.num.degree, S.den.degree) == (2 * n + 1, 2 * n + 1)

    def test_sensitivity_keeps_its_degree_at_the_nominal_plant_of_a_slow_design(self):
        # chi has a genuine root at -1.6e-9, next to the integrator of C_y
        design = AdrcDesign(2, 570.8795424291889, 2.2780339764783215, 285.61184840643404)
        assert gang_of_seven(PlantModel(2, 1.0, 1.0, 1.0), build_adrc(design)).S.den.degree == 5


def _reference_gang(plant, c):
    """The gang as seven products over the monic chi or nc*chi, nothing cancelled."""
    P = plant_tf(plant).canonicalized()
    c_r, c_y = extract_cr_cy(c)
    np_, dp = P.num, P.den
    nr, nc, dc = c_r.num, c_y.num, c_y.den
    chi = dp * dc + np_ * nc

    def over(num, den):
        return RationalTransferFunction(num, den).canonicalized()

    return {
        "S": over(dp * dc, chi),
        "PS": over(np_ * dc, chi),
        "CS": over(nc * dp, chi),
        "T": over(np_ * nc, chi),
        "SF_r": over(dp * dc * nr, nc * chi),
        "PSF_r": over(np_ * dc * nr, nc * chi),
        "TF_r": over(np_ * nr, chi),
    }


def _assert_gang_matches_reference(plant, c):
    want = _reference_gang(plant, c)
    for name, tf in gang_of_seven(plant, c).named().items():
        for got, ref in ((tf.num, want[name].num), (tf.den, want[name].den)):
            assert np.array(got.coeffs).tobytes() == np.array(ref.coeffs).tobytes(), name


class TestGangProducts:
    """Each member is its uncancelled product over the monic chi or nc*chi."""

    @settings(max_examples=100)
    @given(TUNINGS, PLANTS)
    # slow plants with a zero-pole pair of SF_r or PSF_r about 1e-8 apart,
    # which a gang that cancels near roots would remove
    @example(
        (2, 277.04016793641597, 8.72197406907735, 10.44564370789131),
        (0.8570169159768742, 574.6848372750209, 1.0641134210440266),
    )
    @example(
        (2, 525.9936700474275, 7.856861902127318, -8.36559317458831),
        (-0.5951691781089218, 500.6969422962409, 0.8897818157730942),
    )
    def test_bitwise_equal_to_uncancelled_products(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        plant = PlantModel(design.order, K, T, D if design.order == 2 else None)
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            _assert_gang_matches_reference(plant, c)

    def test_plant_pole_on_a_zero_of_c_y_stays_in_the_sensitivity(self, first_order):
        c = first_order["adrc"]
        (zero,) = npoly.polyroots(extract_cr_cy(c)[1].num.coeffs)
        plant = PlantModel(order=1, K=1, T=-1.0 / zero.real)
        # the closed-loop polynomial shares the plant pole, and S = dp dc / chi keeps it
        g = gang_of_seven(plant, c)
        assert (g.S.num.degree, g.S.den.degree) == (3, 3)
        _assert_gang_matches_reference(plant, c)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_plant_gain_gives_zero_members_like_the_reference(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        nominal = case["plant"]
        plant = PlantModel(nominal.order, 0.0, nominal.T, nominal.D)
        for ctrl in ("adrc", "equiv"):
            g = gang_of_seven(plant, case[ctrl])
            for name in ("PS", "T", "PSF_r", "TF_r"):
                assert g.named()[name].num.is_zero, name
            _assert_gang_matches_reference(plant, case[ctrl])


def _channels(m, w):
    """C (jwI - A)^-1 B + D of each input of the first output, in 40-digit arithmetic."""
    n = m.n_states
    with mpmath.workdps(40):
        M = mpmath.mpc(0, w) * mpmath.eye(n) - mpmath.matrix(m.A.tolist())
        return [
            mpmath.fdot(m.C[0].tolist(), mpmath.lu_solve(M, mpmath.matrix(m.B[:, j].tolist()))) + m.D[0, j]
            for j in range(m.n_inputs)
        ]


def _state_space_gang(plant, c, w):
    """|member(jw)| of each gang member, from C_r and C_y evaluated on their
    realization and P on the coefficients of the plant as written, in 40-digit arithmetic."""
    Cr, minus_Cy = _channels(StateSpaceModel(*c.realization), w)
    written = plant_tf(plant)
    with mpmath.workdps(40):
        s = mpmath.mpc(0, w)
        P = mpmath.polyval(written.num.coeffs[::-1], s) / mpmath.polyval(written.den.coeffs[::-1], s)
        S = 1 / (1 - P * minus_Cy)
        Cy, Fr = -minus_Cy, Cr / -minus_Cy
        members = {"S": S, "PS": P * S, "CS": Cy * S, "T": P * Cy * S,
                   "SF_r": S * Fr, "PSF_r": P * S * Fr, "TF_r": P * Cr * S}
        return {name: float(abs(v)) for name, v in members.items()}


class TestGangAccuracy:
    """Gang magnitudes at extreme plants against a 40-digit reference, at the default tuning."""

    @pytest.mark.parametrize(
        "order, K, T, D",
        [(2, 1.0, 1.0, 1e7), (2, 1.0, 1.0, 1e12), (2, 1.0, 1.0, 1e16),
         (1, 1e60, 1.0, None), (1, 1.0, 1e-40, None), (2, 1.0, 1e10, 1.0),
         # a numerator or nc*chi leaves the float range at high w under Horner in s
         (2, 1e288, 1.0, 1.0), (1, 1e296, 1.0, None),
         # a quotient past the float range, evaluated in 1/s
         (2, 1.0, 1.0, 1e296)],
        ids=["plant-d-1e7", "plant-d-1e12", "plant-d-1e16", "plant-k-1e60", "plant-t-1e-40", "plant-t-1e10",
             "plant-k-1e288", "plant-k-1e296", "plant-d-1e296"],
    )
    def test_magnitudes_match_the_state_space(self, order, K, T, D):
        design = AdrcDesign(order, 1.0, 10.0, 1.0)
        plant = PlantModel(order, K, T, D)
        for c in _controllers(design):
            gang = gang_of_seven(plant, c).named()
            for w in log_grid(1e-2, 1e4, 31):
                want = _state_space_gang(plant, c, w)
                for name, tf in gang.items():
                    assert abs(abs(tf(1j * w)) - want[name]) <= 1e-8 * want[name], (name, w)


class TestSharedWorkCounts:
    """Call counts on the default order-2 design; per-member work coming back fails here."""

    @pytest.fixture
    def default_order2(self):
        design = tune_second_order(1.0, 10.0, 1.0)
        return design, PlantModel(order=2, K=1.0, T=1.0, D=1.0)

    def test_channels_made_once_over_one_den_without_a_resolvent(self, monkeypatch, default_order2):
        design, _ = default_order2
        made = []

        def refuse(A):
            raise AssertionError("the channels split the realization")

        monkeypatch.setattr(rows_module, "_resolvent", refuse)
        for c in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            channels = c.channels
            object.__setattr__(c, "channels", lambda alpha: made.append(alpha) or channels(alpha))
            c_r, c_y = extract_cr_cy(c)
            again = extract_cr_cy(c)
            assert again[0] is c_r and again[1] is c_y and c_r.den is c_y.den
        assert made == [1.0, 1.0]

    def test_gang_finds_no_roots(self, monkeypatch, default_order2):
        design, nominal = default_order2
        c = build_adrc(design)
        zero = npoly.polyroots(extract_cr_cy(c)[1].num.coeffs)[0]
        # plant poles on the complex zeros of C_y, which a cancelling gang would remove
        on_zeros = PlantModel(order=2, K=1.0, T=1.0 / abs(zero), D=-zero.real / abs(zero))

        def refuse(*args):
            raise AssertionError("gang_of_seven found roots")

        monkeypatch.setattr(npoly, "polyroots", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for plant in (nominal, on_zeros):
            for ctrl in (c, build_equivalent_controller(equivalent_params(design))):
                gang_of_seven(plant, ctrl)

    @staticmethod
    def _design_point_path(order):
        """One design point through every layer a command runs, as design_scan does."""
        design = (tune_first_order if order == 1 else tune_second_order)(1.0, 10.0, 1.0)
        params = equivalent_params(design)
        plant = PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
        ctrl, equiv = build_adrc(design), build_equivalent_controller(params)
        for c in (ctrl, equiv):
            extract_cr_cy(c)
            gang_of_seven(plant, c)
            step_response(closed_loop(plant, c), 0, t_end=3.0, n_steps=300)
        step_sweep(plant, "K", [0.5, 2.0], ctrl, t_end=3.0, n_steps=300)

    def _count_calls(self, monkeypatch, owner, name, order):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))
        self._design_point_path(order)
        return len(calls)

    @pytest.mark.parametrize("order", [1, 2])
    def test_closed_forms_run_once_per_design(self, monkeypatch, order):
        # the design's own check computes them; equivalent_params reuses them
        assert self._count_calls(monkeypatch, design_module, "_equivalent_fields", order) == 1

    @pytest.mark.parametrize("order", [1, 2])
    def test_each_realization_built_once(self, monkeypatch, order):
        # the design's check computes ADRC's reference column and build_adrc reads it; each
        # builder states the PI(D)F rows of the design's parameters, as PidParams' check does not keep them
        columns, stated = [], []
        original_column, original_realization = design_module._reference_column, design_module.equivalent_realization
        monkeypatch.setattr(
            design_module, "_reference_column", lambda *args: columns.append(args) or original_column(*args)
        )
        design = AdrcDesign(order, 1.0, 10.0, 1.0)
        params = equivalent_params(design)
        assert len(columns) == 1
        for module in (design_module, pid_equiv_module):
            monkeypatch.setattr(module, "equivalent_realization", lambda p: stated.append(p) or original_realization(p))
        build_adrc(design), build_equivalent_controller(params)
        assert len(columns) == 1 and len(stated) == 2 and all(p is params for p in stated)
        assert self._count_calls(monkeypatch, design_module, "_reference_column", order) == 1

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("value_type", [StateSpaceModel, Polynomial, RationalTransferFunction])
    def test_objects_the_package_builds_skip_the_public_checks(self, monkeypatch, order, value_type):
        assert self._count_calls(monkeypatch, value_type, "__init__", order) == 0

    @pytest.mark.parametrize("order", [1, 2])
    def test_pidf_channels_made_once_per_params(self, monkeypatch, order):
        params = equivalent_params((tune_first_order if order == 1 else tune_second_order)(1.0, 10.0, 1.0))
        made = []
        original = PidParams._channels
        monkeypatch.setattr(PidParams, "_channels", lambda p, alpha: made.append(alpha) or original(p, alpha))
        c_r, c_y = extract_cr_cy(build_equivalent_controller(params))
        assert params.feedback_tf() is c_y and params.reference_tf() is c_r
        assert params.channels() == params.channels(1.0) == (c_r, c_y)
        assert made == [1.0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_plant_made_monic_once(self, monkeypatch, order):
        # the plant and the two copies that step_sweep makes of it
        assert self._count_calls(monkeypatch, analysis_module, "_monic_plant", order) == 3
        plant = PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
        assert plant.canonical_tf is plant.canonical_tf

    def test_each_shared_denominator_evaluated_once(self, monkeypatch, default_order2):
        design, plant = default_order2
        evaluated = []
        original = tf_module._horner
        monkeypatch.setattr(tf_module, "_horner", lambda coeffs, points: evaluated.append(coeffs) or original(coeffs, points))
        points = [1j * w for w in log_grid()]
        for c in _controllers(design):
            gang, channels = gang_of_seven(plant, c).named().values(), extract_cr_cy(c)
            evaluated.clear()
            tf_module._evaluate(gang, points)
            # seven numerators over two denominators: chi's monic form and that of nc*chi
            assert len(evaluated) == 7 + 2
            evaluated.clear()
            tf_module._evaluate(channels, points)
            assert len(evaluated) == 2 + 1  # C_r and C_y over dc


class _Counted:
    """A numpy function that counts its calls from outside numpy; its other attributes
    (a ufunc's accumulate, say) are the function's own."""

    def __init__(self, name, fn, calls, numpy_dir):
        self._name, self._fn, self._calls, self._numpy_dir = name, fn, calls, numpy_dir

    def __call__(self, *args, **kwargs):
        if not sys._getframe(1).f_code.co_filename.startswith(self._numpy_dir):
            self._calls[self._name] += 1
        return self._fn(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._fn, attr)


class TestNumpyCallBudget:
    """The numpy calls of one design_scan operation: a round trip added to the
    fixed cost of a design point fails here.

    Counted are the calls, from outside numpy, of every numpy function that the
    package names (as np.<name>, np.<module>.<name> or by a from-import of a numpy
    module): each is replaced on its module by a counting wrapper for the
    operation, so a call made through map, partial or any other callable counts
    as well.  Array methods and operators are not numpy functions and do not count."""

    # order -> calls; 34 for both orders before the frequency layers were made plain floats:
    # 10 np.convolve in the gangs, np.arange in adrc_channels, and 8 np.array for the arrays
    # of both controllers, which no controller makes any more
    BUDGET = {1: 15, 2: 15}

    @staticmethod
    def _design_scan_op(order):
        tune = tune_first_order if order == 1 else tune_second_order
        design, params = tune(1.0, 10.0, 1.0), equivalent_params(tune(1.0, 10.0, 1.0))
        ctrl, equiv = build_adrc(design), build_equivalent_controller(params)
        extract_cr_cy(ctrl)
        params.feedback_tf()
        plant = PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
        gang_of_seven(plant, ctrl), gang_of_seven(plant, equiv)
        step_response(closed_loop(plant, ctrl), 0, t_end=3.0, n_steps=300)

    @staticmethod
    def _entry_points():
        """(module, name) of every numpy function that the package names."""
        found = set()
        for path in sorted(Path(tf_module.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                    found.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    parts = []
                    while isinstance(node, ast.Attribute):
                        parts.insert(0, node.attr)
                        node = node.value
                    if isinstance(node, ast.Name) and node.id == "np":
                        found.add((".".join(["numpy", *parts[:-1]]), parts[-1]))
        return found

    def _numpy_calls(self, fn):
        calls = collections.Counter()
        numpy_dir = str(Path(np.__file__).parent)
        wrapped = []
        for module, name in sorted(self._entry_points()):
            try:
                owner = importlib.import_module(module)
            except ImportError:  # np.maximum.accumulate: the method of a ufunc, counted through np.maximum
                continue
            obj = getattr(owner, name)
            if callable(obj) and not isinstance(obj, type):
                wrapped.append((owner, name, obj))
        try:
            for owner, name, obj in wrapped:
                setattr(owner, name, _Counted(name, obj, calls, numpy_dir))
            fn()
        finally:
            for owner, name, obj in wrapped:
                setattr(owner, name, obj)
        return calls

    def test_finds_the_entry_points_the_package_names(self):
        points = self._entry_points()
        assert {("numpy", "array"), ("numpy.linalg", "solve"), ("numpy.polynomial.polynomial", "polyroots")} <= points
        assert ("numpy", "convolve") not in points

    @pytest.mark.parametrize("order", [1, 2])
    def test_one_design_point_stays_within_its_numpy_calls(self, order):
        self._design_scan_op(order)  # fills the per-size caches first
        calls = self._numpy_calls(lambda: self._design_scan_op(order))
        assert sum(calls.values()) == self.BUDGET[order], sorted(calls.items())

    def test_verification_calls_no_numpy(self):
        # its settling trace too is stepped in plain floats
        assert self._numpy_calls(verify_module.run_verification) == {}

    def test_counts_the_calls_made_through_map_but_not_numpy_internal_ones(self):
        design = tune_second_order(1.0, 10.0, 1.0)
        ctrl, plant = build_adrc(design), PlantModel(2, 1.0, 1.0, 1.0)
        # closed_loop hands its rows to StateSpaceModel._trusted, which makes the four
        # arrays by map(np.array, ...); np.atleast_2d's own np.asanyarray is numpy's
        assert self._numpy_calls(lambda: closed_loop(plant, ctrl)) == {"array": 4}


SIGNED_ZEROS_AND_SUBNORMALS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1030)


class TestUncheckedConstructors:
    """Objects the package builds without the public checks equal what the checks would build."""

    @staticmethod
    def _assert_same_model(got, want):
        for name in "ABCD":
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable, name
        assert (got.input_labels, got.output_labels) == (want.input_labels, want.output_labels)

    @settings(max_examples=100)
    @given(TUNINGS, PLANTS)
    def test_models_equal_the_public_constructor(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        plant = PlantModel(design.order, K, T, D if design.order == 2 else None)
        params = equivalent_params(design)
        ctrl, equiv = build_adrc(design), build_equivalent_controller(params)
        for m in (closed_loop(plant, ctrl), closed_loop(plant, equiv)):
            A, B, C, D = (getattr(m, name).tolist() for name in "ABCD")
            self._assert_same_model(m, StateSpaceModel(A, B, C, D, m.input_labels, m.output_labels))

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(SIGNED_ZEROS_AND_SUBNORMALS)), min_size=1, max_size=8))
    @example([-0.0])
    @example([0.0, -0.0])
    @example([-0.0, 1.0, 0.0, -0.0])
    @example([5e-324, -0.0])
    @example([1.0, -5e-324])
    def test_polynomial_fast_path_trims_as_the_constructor(self, coeffs):
        got, want = tf_module._poly(list(coeffs)), Polynomial(tuple(coeffs))
        assert type(got) is Polynomial
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs]


class TestLoopMeasures:
    @pytest.mark.parametrize("order", [1, 2])
    def test_equal_sensitivity_peaks(self, order, first_order, second_order):
        case = first_order if order == 1 else second_order
        omega = np.array(log_grid(1e-2, 1e3, 400))
        ms_a = np.max(np.abs(gang_of_seven(case["plant"], case["adrc"]).S(1j * omega)))
        ms_e = np.max(np.abs(gang_of_seven(case["plant"], case["equiv"]).S(1j * omega)))
        assert ms_a == pytest.approx(ms_e, rel=1e-6)
        assert ms_a > 1.0


# plant gain of either sign, lag up to two decades off, damping up to stiff loops at D = 1e24
STIFF_PLANTS = st.tuples(PLANTS.map(lambda p: p[0]), log_uniform(1e-2, 1e2), log_uniform(0.5, 1e24))


class TestStability:
    """A sweep case is stable iff the Routh test passes its chi; checked against a 120-digit eigenvalue solve."""

    def _assert_stable_as_solved(self, design, plant, values):
        for name, ctrl in zip(("adrc", "equiv"), _controllers(design)):
            sweep = step_sweep(plant, "K", values, ctrl, t_end=STEP_HORIZON_FACTOR * design.T_s)
            for case in sweep.cases:
                loop = closed_loop(PlantModel(plant.order, case.value, plant.T, plant.D), ctrl)
                assert case.stable is mp_stable(loop.A), (case.value, name)

    @settings(max_examples=100)
    @given(TUNINGS, STIFF_PLANTS)
    # tunings past the aim-3 range, at which C_y or the Routh array in s leaves the float range
    @example((2, 1e-100, 1.0, 1.0), (1.0, 1.0, 1.0))
    @example((2, 1e-100, 10.0, -1.0), (-1.0, 1.0, 1.0))
    @example((1, 1e-100, 1e3, 1.0), (1.0, 1.0, 1.0))
    def test_agrees_with_the_eigenvalues(self, tuning, plant):
        design = AdrcDesign(*tuning)
        K, T, D = plant
        self._assert_stable_as_solved(design, PlantModel(design.order, K, T, D if design.order == 2 else None), (K,))

    @pytest.mark.parametrize("D", [1.0, 1e8, 1e16, 1e24])
    def test_agrees_with_the_eigenvalues_on_the_figure_5_cases(self, D):
        # where numpy's eigvals of the loop's A gets the sign wrong in 21 of the 48 cases
        self._assert_stable_as_solved(AdrcDesign(2, 1.0, 10.0, 1.0), PlantModel(2, 1.0, 1.0, D), (0.1, 0.2, 0.5, 1, 2, 5))


def _exact_measurement(design: AdrcDesign, params: PidParams) -> dict[str, tuple[list, list]]:
    """(nc, dc) of C_y of each controller of a figure, in exact rational arithmetic."""
    _, nc, dc = exact_adrc_split(design.order, design.T_s, design.g, design.b0)
    Tf = Fraction(params.Tf)
    filter_ = [Fraction(1), Tf] if design.order == 1 else [Fraction(1), 2 * Fraction(params.d) * Tf, Tf * Tf]
    return {"adrc": (nc, dc), "equiv": ([Fraction(params.ki), Fraction(params.kp), Fraction(params.kd)], [0, *filter_])}


def _fraction_product(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trace_errors(design: AdrcDesign, plant: PlantModel) -> dict[str, list[float]]:
    """The largest error of the ADRC and the PI(D)F step trace, 300 samples over 3 T_s,
    against the exact loop: of the step table ("table") and of the plain-float trace that
    verify's settling check steps ("plain")."""
    tuning = (design.order, design.T_s, design.g, design.b0)
    loops = (
        (build_adrc(design), exact_observer_form(*tuning)),
        (build_equivalent_controller(equivalent_params(design)), exact_pidf_rows(*tuning)),
    )
    t_end = 3.0 * design.T_s
    errors = {"table": [], "plain": []}
    for ctrl, rows in loops:
        exact = exact_step(rows, plant, t_end, 300)
        traces = {
            "table": step_response(closed_loop(plant, ctrl), 0, t_end=t_end, n_steps=300).columns["y"].tolist(),
            "plain": rows_module._step_trace(analysis_module._loop_rows(plant, ctrl), t_end, 300),
        }
        for key, y in traces.items():
            errors[key].append(max(abs(a - b) for a, b in zip(y, exact, strict=True)))
    return errors


def _seeded_trace_points(n: int = 8, seed: int = 30) -> list[tuple[float, ...]]:
    """n draws of (T_s, g, b0, T / T_s, K / (b0 T^n), D): T_s, g and |b0| log-uniform over the
    aim-3 range, either sign of b0, and a plant scaled to the tuning by uniform factors."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        ts, g = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(0.0, 3.0)
        b0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        points.append((ts, g, b0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.4)))
    return points


SEEDED_TRACE_POINTS = _seeded_trace_points()
SEEDED_TRACE_CASES = [(order, draw) for order in (1, 2) for draw in range(len(SEEDED_TRACE_POINTS))]
# draws where the 2x rule breaks with both traces at the rounding floor, far below their 1e-10 gate
SEEDED_RATIO_BREAKS = {
    (2, 7): "ADRC's error 9.6e-15 is 3.1x the PID+F loop's 3.1e-15 (T_s=1.32, g=1.6, b0=-0.70)",
}


@functools.cache
def _seeded_trace_errors(order: int, draw: int) -> dict[str, list[float]]:
    ts, g, b0, t_scale, k_scale, D = SEEDED_TRACE_POINTS[draw]
    T = ts * t_scale
    plant = PlantModel(order, b0 * T**order * k_scale, T, D if order == 2 else None)
    return _trace_errors(AdrcDesign(order, ts, g, b0), plant)


def _hexes(values: list) -> list[tuple[str, str]]:
    """float.hex of the real and imaginary part of each complex value, so that NaN positions and
    signed zeros count."""
    return [(v.real.hex(), v.imag.hex()) for v in values]


class TestSharedEvaluation:
    """tf._evaluate, which evaluates each denominator object once, against each transfer
    function evaluated alone, bit for bit."""

    @staticmethod
    def _assert_as_alone(tfs, points):
        assert [_hexes(values) for values in tf_module._evaluate(tfs, points)] == [_hexes(tf(points)) for tf in tfs]

    @pytest.mark.parametrize("order, draw", SEEDED_TRACE_CASES)
    def test_gangs_and_channels_at_seeded_points_of_the_aim3_range(self, order, draw):
        ts, g, b0, t_scale, k_scale, D = SEEDED_TRACE_POINTS[draw]
        T = ts * t_scale
        plant = PlantModel(order, b0 * T**order * k_scale, T, D if order == 2 else None)
        points = [1j * w for w in log_grid(1e-3 / ts, 1e5 / ts, 200)]
        for c in _controllers(AdrcDesign(order, ts, g, b0)):
            self._assert_as_alone(list(gang_of_seven(plant, c).named().values()), points)
            self._assert_as_alone(extract_cr_cy(c), points)

    def test_transfer_functions_made_while_the_list_is_read(self):
        # each is made, evaluated and dropped in turn, so that a later denominator can take the
        # id of a dropped one, as some of these 60 do
        rng = random.Random(33)
        dens = [tuple(rng.uniform(0.5, 2.0) for _ in range(rng.choice((2, 3)))) for _ in range(60)]
        num, points = Polynomial((1.0, -1.0)), [1j * w for w in log_grid(1e-2, 1e2, 9)]
        made = (RationalTransferFunction(num, Polynomial(den)) for den in dens)
        alone = [RationalTransferFunction(num, Polynomial(den))(points) for den in dens]
        assert [_hexes(values) for values in tf_module._evaluate(made, points)] == [_hexes(v) for v in alone]

    @pytest.mark.parametrize("K, D", [(1.0, 1e296), (1e288, 1.0)], ids=["plant-d-1e296", "plant-k-1e288"])
    def test_gangs_that_take_the_reciprocal_path(self, monkeypatch, K, D):
        redone = []
        original = tf_module._redo_in_reciprocal
        monkeypatch.setattr(tf_module, "_redo_in_reciprocal", lambda tf, *args: redone.append(tf) or original(tf, *args))
        plant = PlantModel(2, K, 1.0, D)
        for c in _controllers(AdrcDesign(2, 1.0, 10.0, 1.0)):
            self._assert_as_alone(list(gang_of_seven(plant, c).named().values()), [1j * w for w in log_grid()])
        assert redone


class TestStepTraceAccuracy:
    """Step traces against the exact loop, from the inputs taken as Fractions: ADRC's from its
    observer form, a realization that shares no float row with build_adrc's, and PI(D)F's from
    its own rows."""

    @pytest.mark.parametrize("order, g", [(2, 1e3), (2, 1e5), (2, 1e6), (2, 1e8), (1, 1e3), (1, 1e6), (1, 1e9)])
    def test_adrc_trace_within_twice_the_pidf_traces_error(self, order, g):
        # the two share their measurement path, so ADRC's reference column may cost no more than that
        design = AdrcDesign(order, 1.0, g, 1.0)
        errors = _trace_errors(design, PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None))["table"]
        assert errors[0] <= 2.0 * errors[1], errors

    @pytest.mark.parametrize("order, draw", SEEDED_TRACE_CASES)
    def test_traces_are_exact_at_seeded_points_of_the_aim3_range(self, order, draw):
        assert max(_seeded_trace_errors(order, draw)["table"]) <= 1e-10

    @pytest.mark.parametrize("order, draw", SEEDED_TRACE_CASES)
    def test_plain_traces_are_exact_at_seeded_points_of_the_aim3_range(self, order, draw):
        # the plain-float exponential and recurrence of verify's settling check, on the same loops
        assert max(_seeded_trace_errors(order, draw)["plain"]) <= 1e-10

    @pytest.mark.parametrize(
        "order, draw",
        [
            pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=SEEDED_RATIO_BREAKS[case]))
            if case in SEEDED_RATIO_BREAKS
            else case
            for case in SEEDED_TRACE_CASES
        ],
    )
    def test_adrc_trace_within_twice_the_pidf_traces_error_at_seeded_points(self, order, draw):
        errors = _seeded_trace_errors(order, draw)["table"]
        assert errors[0] <= 2.0 * errors[1], errors

    @pytest.mark.parametrize("order", [1, 2])
    def test_oracle_gives_one_trace_for_both_exact_adrc_realizations(self, order):
        plant = PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
        A, B, C, D = exact_pidf_rows(order, 1.0, 10.0, 1.0)
        B = [[beta, b_y] for beta, (_, b_y) in zip(exact_reference_column(order, 1.0, 10.0, 1.0), B)]
        observer = exact_step(exact_observer_form(order, 1.0, 10.0, 1.0), plant, 3.0, 300)
        assert max(abs(a - b) for a, b in zip(observer, exact_step((A, B, C, D), plant, 3.0, 300))) <= 1e-15
        ctrl = build_adrc(AdrcDesign(order, 1.0, 10.0, 1.0))
        y = step_response(closed_loop(plant, ctrl), 0, t_end=3.0, n_steps=300).columns["y"].tolist()
        assert max(abs(a - b) for a, b in zip(y, observer, strict=True)) <= 1e-12


class TestSweepNotesAtExtremeG:
    """The stability notes of the default sweeps of figures 1, 2, 5 and 6 at g far past the
    aim-3 range, on every case that AdrcDesign accepts and step_sweep simulates and judges,
    against the exact Routh verdict of the exact loop."""

    def test_notes_equal_the_exact_routh_verdict(self):
        from adrcpid.cli import DEFAULT_SWEEPS, FIGURES

        checked = 0
        for fig in (1, 2, 5, 6):
            _, parameter, order = FIGURES[fig]
            for g, ts, b0 in itertools.product((1e10, 1e30, 1e100), (1e-3, 1.0, 1e3), (1.0, -1.0)):
                try:
                    design = AdrcDesign(order, ts, g, b0)
                except ValueError:
                    continue
                params = equivalent_params(design)
                plant = PlantModel(order, 1.0, 1.0, 1.0 if order == 2 else None)
                values = DEFAULT_SWEEPS[(order, parameter)]
                try:  # a figure is refused whole if any case of either controller is
                    sweeps = {
                        name: step_sweep(plant, parameter, values, ctrl, STEP_HORIZON_FACTOR * ts)
                        for name, ctrl in zip(("adrc", "equiv"), _controllers(design))
                    }
                except ValueError as exc:
                    assert str(exc).startswith("the step response at this tuning is not representable")
                    continue
                exact = _exact_measurement(design, params)
                for name, sweep in sweeps.items():
                    nc, dc = exact[name]
                    for case in sweep.cases:
                        K, T = (Fraction(case.value), Fraction(1)) if parameter == "K" else (Fraction(1), Fraction(case.value))
                        dp = [Fraction(1), T] if order == 1 else [Fraction(1), 2 * T, T * T]
                        chi = [a + K * b for a, b in itertools.zip_longest(_fraction_product(dp, dc), nc, fillvalue=0)]
                        assert case.stable == exact_stable(chi), (fig, g, ts, b0, case.value, name)
                        checked += 1
        assert checked == 288


class TestStepSweep:
    def test_first_order_gain_sweep_all_stable(self, first_order):
        for name in ("adrc", "equiv"):
            sweep = step_sweep(first_order["plant"], "K", (0.1, 0.2, 0.5, 1, 2, 5, 10), first_order[name], t_end=10.0)
            assert all(case.stable for case in sweep.cases)
            spans = {case.table.t[-1] for case in sweep.cases}
            assert spans == {10.0}

    def test_low_gain_case_stable(self, first_order):
        for name in ("adrc", "equiv"):
            (case,) = step_sweep(first_order["plant"], "K", (0.1,), first_order[name], t_end=10.0).cases
            assert case.value == 0.1 and case.stable

    def test_second_order_time_constant_sweep_flags_unstable(self, second_order):
        sweeps = {
            name: step_sweep(second_order["plant"], "T", (0.1, 0.2, 0.5, 1, 2, 5), second_order[name], t_end=10.0)
            for name in ("adrc", "equiv")
        }
        unstable = {case.value for sweep in sweeps.values() for case in sweep.cases if not case.stable}
        assert unstable == {0.1, 0.2, 5.0}
        # divergence is recorded, not raised
        case = sweeps["adrc"].cases[1]
        assert case.value == 0.2
        diverged = case.table.columns["y"]
        assert not np.all(np.isfinite(diverged)) or np.max(np.abs(diverged)) > 1e3

    def test_stable_cases_converge(self, first_order):
        # horizon long enough for the slowest stable mode to decay below 1e-6
        sweep = step_sweep(first_order["plant"], "T", (0.1, 1.0, 10.0), first_order["adrc"], t_end=30.0)
        assert sweep.parameter == "T" and [case.value for case in sweep.cases] == [0.1, 1.0, 10.0]
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
            step_sweep(first_order["plant"], "K", (), first_order["adrc"], 10.0)

    def test_rejects_unknown_parameter(self, first_order):
        with pytest.raises(ValueError):
            step_sweep(first_order["plant"], "D", (1.0,), first_order["adrc"], 10.0)

    @pytest.mark.parametrize("values", [(2.0, 2), (1e-7, 1.0000001e-7), (-0.5, 3.0, -0.50000004)])
    def test_rejects_values_with_one_label(self, first_order, values):
        # the figure's columns and notes would name both cases alike
        with pytest.raises(ValueError, match="cannot be told apart: both are labelled K="):
            step_sweep(first_order["plant"], "K", values, first_order["adrc"], 10.0)


class TestBodeSet:
    def test_measurement_channel_rolls_off(self, first_order):
        _, c_y = extract_cr_cy(first_order["adrc"])
        omega = np.array(log_grid(1e-2, 1e4, 600))
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
        omega = np.array(log_grid(1e-2, 1e4, 600))
        ma, me = np.abs(cy_adrc(1j * omega)), np.abs(cy_equiv(1j * omega))
        assert np.max(np.abs(ma - me) / ma) < 1e-8

    def test_phase_unwrapped(self, second_order):
        _, c_y = extract_cr_cy(second_order["adrc"])
        phase = np.degrees(np.unwrap(np.angle(c_y(1j * np.array(log_grid(1e-2, 1e4, 600))))))
        assert np.max(np.abs(np.diff(phase))) < 90.0
