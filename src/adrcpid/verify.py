"""Numerical verification suite behind the `verify` CLI command.

Every check reduces to a scalar residual compared against a fixed
tolerance, so the command can print one machine-readable line per check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adrc import build_adrc, extract_cr_cy
from .analysis import PlantModel, closed_loop, gang_of_seven, s_plus_t_residual
from .design import AdrcDesign, PidParams, equivalent_params, pidf_from_adrc, tune_second_order
from .lti import (
    Polynomial,
    RationalTransferFunction,
    log_grid,
    ss_to_tf,
    step_response,
    tf_neg,
    tf_residual,
)
from .pid_equiv import build_equivalent_controller, verify_asymptotes

EQUIVALENCE_GRID_TS = (0.5, 1.0, 2.0)
EQUIVALENCE_GRID_G = (2.0, 5.0, 10.0, 20.0)
EQUIVALENCE_GRID_B0 = (0.5, 1.0, 3.0)
EQUIVALENCE_GRID = tuple(itertools.product(EQUIVALENCE_GRID_TS, EQUIVALENCE_GRID_G, EQUIVALENCE_GRID_B0))

GANG_OMEGA_LO = 1e-2
GANG_OMEGA_HI = 1e3
GANG_OMEGA_POINTS = 300

D_MIN_EXACT = 5.0 / (2.0 * math.sqrt(10.0))


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _perturbed_params(order: int, perturb_b0: float) -> list[PidParams]:
    """equivalent_params over EQUIVALENCE_GRID with b0 scaled by perturb_b0.

    A perturb_b0 that takes any b0 of the grid out of range is refused whole.
    """
    if not 0 < abs(perturb_b0) < math.inf:
        raise ValueError(f"perturb_b0 must be finite and nonzero, got {perturb_b0!r}")
    try:
        return [equivalent_params(AdrcDesign(order, ts, g, b0 * perturb_b0)) for ts, g, b0 in EQUIVALENCE_GRID]
    except ValueError:
        raise ValueError(
            f"perturb_b0={perturb_b0!r} is out of range: scaled by it, the b0 of the equivalence grid "
            "give gains or equivalent PI(D) parameters that are not finite and nonzero"
        ) from None


def _cy_equivalence(order: int, perturbed: list[PidParams]) -> float:
    worst = 0.0
    for (ts, g, b0), params in zip(EQUIVALENCE_GRID, perturbed):
        _, c_y = extract_cr_cy(build_adrc(AdrcDesign(order, ts, g, b0)))
        worst = max(worst, tf_residual(c_y, params.feedback_tf()))
    return worst


def _cr_closed_form(design: AdrcDesign) -> RationalTransferFunction:
    K_P, l1, l2, b0 = design.K_P, design.l1, design.l2, design.b0
    return RationalTransferFunction.from_coeffs(
        (K_P * l2 / b0, K_P * l1 / b0, K_P / b0), (0.0, l1 + K_P, 1.0)
    )


def _gang_of_four_identity(design: AdrcDesign, plant: PlantModel) -> float:
    g7_adrc = gang_of_seven(plant, build_adrc(design))
    g7_equiv = gang_of_seven(plant, build_equivalent_controller(equivalent_params(design)))
    omega = log_grid(GANG_OMEGA_LO, GANG_OMEGA_HI, GANG_OMEGA_POINTS)
    worst = 0.0
    for name in ("S", "PS", "CS", "T"):
        ma = np.abs(np.asarray(g7_adrc.named()[name](1j * omega)))
        me = np.abs(np.asarray(g7_equiv.named()[name](1j * omega)))
        worst = max(worst, float(np.max(np.abs(ma - me) / np.maximum(ma, me))))
    return worst


def _realization_fidelity(design: AdrcDesign) -> float:
    """Worst coefficient residual of the printed realization's two channels
    against their closed forms, over the realization's own denominator s*filter.

    The r channel b*kp + ki/s is written as (ki + b*kp*s)*filter / (s*filter),
    so no root is found and nothing is cancelled.
    """
    params = equivalent_params(design)
    ctrl = build_equivalent_controller(params)
    feedback = params.feedback_tf()
    filter_ = Polynomial(feedback.den.coeffs[1:])  # s*filter without its exact-zero constant term
    reference = RationalTransferFunction(Polynomial((params.ki, params.b * params.kp)) * filter_, feedback.den)
    return max(
        tf_residual(ss_to_tf(ctrl.ss, 1, 0), tf_neg(feedback)),
        tf_residual(ss_to_tf(ctrl.ss, 0, 0), reference),
    )


def _setpoint_weight_consistency(order: int) -> float:
    worst = 0.0
    for ts, g, b0 in EQUIVALENCE_GRID:
        params = equivalent_params(AdrcDesign(order, ts, g, b0))
        expected = 4.0 / ts if order == 1 else 36.0 / ts**2
        got = params.b * params.kp * b0
        worst = max(worst, abs(got - expected) / expected)
    return worst


def _filter_damping_range() -> float:
    gs = np.logspace(np.log10(0.1), np.log10(100.0), 201)
    ds = np.array([pidf_from_adrc(tune_second_order(1.0, float(g), 1.0)).d for g in gs])
    lower = D_MIN_EXACT - 1e-12
    violation = max(0.0, float(lower - ds.min()), float(ds.max() - (1.0 - 1e-12)))
    min_offset = abs(float(ds.min()) - D_MIN_EXACT)
    return max(violation, min_offset)


def _settling_time(design: AdrcDesign, plant: PlantModel, band: float = 0.02) -> float:
    loop = closed_loop(plant, build_adrc(design))
    table = step_response(loop, input=0, t_end=3.0 * design.T_s, n_steps=6000)
    y = table.columns["y"]
    outside = np.nonzero(np.abs(y - 1.0) > band)[0]
    if outside.size == 0:
        return 0.0
    if outside[-1] == y.size - 1:
        return math.inf
    return float(table.t[outside[-1] + 1])


def run_verification(
    ts: float = 1.0,
    g: float = 10.0,
    b0: float = 1.0,
    perturb_b0: float = 1.0,
) -> list[VerificationCheck]:
    """All equivalence, asymptote, and structural checks as residual/tol pairs.

    ``perturb_b0`` scales b0 on the PI(D)F side of the equivalence checks
    only; any value other than 1 must make those checks fail, which is the
    self-test that the suite actually detects mismatches.
    """
    # both designs and the perturbed grid first, so that a tuning or a
    # perturb_b0 out of range is refused before any work
    design1, design2 = (AdrcDesign(order, ts, g, b0) for order in (1, 2))
    perturbed1, perturbed2 = (_perturbed_params(order, perturb_b0) for order in (1, 2))
    checks: list[VerificationCheck] = []
    add = checks.append

    add(VerificationCheck("cy_equivalence_order1", _cy_equivalence(1, perturbed1), 1e-9))
    add(VerificationCheck("cy_equivalence_order2", _cy_equivalence(2, perturbed2), 1e-9))

    c_r, _ = extract_cr_cy(build_adrc(design1))
    add(VerificationCheck("cr_closed_form_order1", tf_residual(c_r, _cr_closed_form(design1)), 1e-9))

    for order, design in ((1, design1), (2, design2)):
        low, high = verify_asymptotes(design, equivalent_params(design))
        add(VerificationCheck(f"asymptote_low_order{order}", low, 1e-4))
        add(VerificationCheck(f"asymptote_high_order{order}", high, 1e-4))

    # nominal plants with the sign of b0, so that a negative b0 still gives negative feedback
    K = math.copysign(1.0, b0)
    plant1 = PlantModel(order=1, K=K, T=1.0)
    plant2 = PlantModel(order=2, K=K, T=1.0, D=1.0)
    add(VerificationCheck("gang_of_four_identity_order1", _gang_of_four_identity(design1, plant1), 1e-8))
    add(VerificationCheck("gang_of_four_identity_order2", _gang_of_four_identity(design2, plant2), 1e-8))

    g7_1 = gang_of_seven(plant1, build_adrc(design1))
    g7_2 = gang_of_seven(plant2, build_adrc(design2))
    add(VerificationCheck("s_plus_t_identity_order1", s_plus_t_residual(g7_1), 1e-9))
    add(VerificationCheck("s_plus_t_identity_order2", s_plus_t_residual(g7_2), 1e-9))

    add(VerificationCheck("realization_fidelity_pif", _realization_fidelity(design1), 1e-9))
    add(VerificationCheck("realization_fidelity_pidf", _realization_fidelity(design2), 1e-9))

    add(VerificationCheck("setpoint_weight_consistency_order1", _setpoint_weight_consistency(1), 1e-12))
    add(VerificationCheck("setpoint_weight_consistency_order2", _setpoint_weight_consistency(2), 1e-12))

    add(VerificationCheck("filter_damping_range", _filter_damping_range(), 1e-3))
    add(VerificationCheck("settling_time_nominal_order1", _settling_time(design1, plant1), 1.3 * ts))

    return checks
