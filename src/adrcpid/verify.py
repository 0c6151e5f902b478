"""Numerical verification suite behind the `verify` CLI command.

Every check reduces to a scalar residual compared against a fixed
tolerance, so the command can print one machine-readable line per check.
"""

from __future__ import annotations

import itertools
import math

from .adrc import TwoInputController, build_adrc, extract_cr_cy
from .analysis import GangOfSeven, PlantModel, _loop_rows, gang_of_seven, s_plus_t_residual
from .design import AdrcDesign, PidParams, equivalent_params, tune_second_order
from .pid_equiv import build_equivalent_controller, verify_asymptotes
from .tf import _evaluate, _split, _step_trace, log_grid, tf_neg, tf_residual
from .value import Value

EQUIVALENCE_GRID_TS = (0.5, 1.0, 2.0)
EQUIVALENCE_GRID_G = (2.0, 5.0, 10.0, 20.0)
EQUIVALENCE_GRID_B0 = (0.5, 1.0, 3.0)
EQUIVALENCE_GRID = tuple(itertools.product(EQUIVALENCE_GRID_TS, EQUIVALENCE_GRID_G, EQUIVALENCE_GRID_B0))

GANG_OMEGA_LO = 1e-2
GANG_OMEGA_HI = 1e3
GANG_OMEGA_POINTS = 300

D_MIN_EXACT = 5.0 / (2.0 * math.sqrt(10.0))


class VerificationCheck(Value):
    name: str
    residual: float
    tol: float

    def __init__(self, name: str, residual: float, tol: float):
        self.__dict__.update(name=name, residual=residual, tol=tol)

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _perturbed_params(order: int, perturb_b0: float) -> list[PidParams]:
    """equivalent_params over EQUIVALENCE_GRID with b0 scaled by perturb_b0.

    A perturb_b0 that takes any b0 of the grid out of range is refused whole, for
    the reason that AdrcDesign gives the first grid design that it refuses.
    """
    if not 0 < abs(perturb_b0) < math.inf:
        raise ValueError(f"perturb_b0 must be finite and nonzero, got {perturb_b0!r}")
    try:
        return [equivalent_params(AdrcDesign(order, ts, g, b0 * perturb_b0)) for ts, g, b0 in EQUIVALENCE_GRID]
    except ValueError as exc:
        reason = str(exc).partition(" is out of range: ")[2]
        raise ValueError(f"perturb_b0={perturb_b0!r} is out of range: on the equivalence grid, {reason}") from None


def _grid_residuals(order: int, perturbed: list[PidParams]) -> tuple[float, float, float]:
    """(cy_equivalence, setpoint_weight_consistency, adrc_realization) of one order, in one
    pass over EQUIVALENCE_GRID: each design's C_y against the feedback channel of its perturbed
    parameters, the set-point weight of its own parameters against its closed form, and its
    realization against its closed forms, on g <= 20, where the split is good to 1e-13."""
    cy = weight = realization = 0.0
    for (ts, g, b0), perturbed_params in zip(EQUIVALENCE_GRID, perturbed):
        design = AdrcDesign(order, ts, g, b0)
        ctrl = build_adrc(design)
        _, c_y = extract_cr_cy(ctrl)
        cy = max(cy, tf_residual(c_y, perturbed_params.feedback_tf()))
        params = equivalent_params(design)
        expected = 4.0 / ts if order == 1 else 36.0 / ts**2
        weight = max(weight, abs(params.b * params.kp * b0 - expected) / expected)
        realization = max(realization, _realization_residual(ctrl))
    return cy, weight, realization


def _gang_of_four_identity(g7_adrc: GangOfSeven, g7_equiv: GangOfSeven) -> float:
    points = [1j * w for w in log_grid(GANG_OMEGA_LO, GANG_OMEGA_HI, GANG_OMEGA_POINTS)]
    adrc, equiv = (_evaluate((g7.S, g7.PS, g7.CS, g7.T_cl), points) for g7 in (g7_adrc, g7_equiv))
    worst = 0.0
    for values_adrc, values_equiv in zip(adrc, equiv):
        for ma, me in zip(map(abs, values_adrc), map(abs, values_equiv)):
            if ma != me:  # and so not both 0
                worst = max(worst, abs(ma - me) / max(ma, me))
    return worst


def _realization_residual(ctrl: TwoInputController) -> float:
    """Worst coefficient residual of the numeric split of ctrl's realization, one
    split of its rows for both channels, against the closed forms ctrl carries,
    both over the monic denominator, so no root is found and nothing is cancelled."""
    c_r, minus_c_y = _split(ctrl.realization)
    return max(map(tf_residual, (c_r, tf_neg(minus_c_y)), extract_cr_cy(ctrl)))


def _filter_damping_range() -> float:
    ds = [equivalent_params(tune_second_order(1.0, g, 1.0)).d for g in log_grid(0.1, 100.0, 201)]
    lower = D_MIN_EXACT - 1e-12
    violation = max(0.0, lower - min(ds), max(ds) - (1.0 - 1e-12))
    min_offset = abs(min(ds) - D_MIN_EXACT)
    return max(violation, min_offset)


def _settling_time(ctrl: TwoInputController, plant: PlantModel, ts: float, band: float = 0.02) -> float:
    """The first time on the grid of 6000 samples over 3 T_s after which the unit-step trace
    of the loop stays within band of 1: 0.0 if it always does, and inf if its last sample is
    outside or the trace is not computable (an entry of the loop or of its exponential
    overflows, or a sample is not finite), whichever way the floats round at such scales."""
    t_end, n_steps = 3.0 * ts, 6000
    y = _step_trace(_loop_rows(plant, ctrl), t_end, n_steps)
    if not all(map(math.isfinite, y)):
        return math.inf
    outside = [k for k, v in enumerate(y) if abs(v - 1.0) > band]
    if not outside:
        return 0.0
    k = outside[-1] + 1
    if k == len(y):
        return math.inf
    return t_end if k == n_steps else k * (t_end / n_steps)  # step_response's sample times


def run_verification(
    ts: float = 1.0,
    g: float = 10.0,
    b0: float = 1.0,
    perturb_b0: float = 1.0,
) -> list[VerificationCheck]:
    """All equivalence, asymptote, and structural checks as residual/tol pairs.

    Each order's ADRC and PI(D)F controllers at the tuning are built once,
    and every check that needs them reads the closed forms they carry.
    ``perturb_b0`` scales b0 on the PI(D)F side of the equivalence checks
    only; any value other than 1 must make those checks fail, which is the
    self-test that the suite actually detects mismatches.
    """
    # both designs and the perturbed grid first, so that a tuning or a
    # perturb_b0 out of range is refused before any work
    designs = {order: AdrcDesign(order, ts, g, b0) for order in (1, 2)}
    perturbed = {order: _perturbed_params(order, perturb_b0) for order in (1, 2)}
    grids = {order: _grid_residuals(order, perturbed[order]) for order in (1, 2)}
    params = {order: equivalent_params(design) for order, design in designs.items()}
    adrc = {order: build_adrc(design) for order, design in designs.items()}
    equiv = {order: build_equivalent_controller(p) for order, p in params.items()}
    # building refuses nothing; the channels and gangs that can refuse run below,
    # in the order of the checks, which fixes the first refusal
    checks: list[VerificationCheck] = []
    add = checks.append

    for order in (1, 2):
        add(VerificationCheck(f"cy_equivalence_order{order}", grids[order][0], 1e-9))

    for order in (1, 2):
        add(VerificationCheck(f"adrc_realization_order{order}", grids[order][2], 1e-9))

    for order in (1, 2):
        low, high = verify_asymptotes(extract_cr_cy(adrc[order])[0], params[order])
        add(VerificationCheck(f"asymptote_low_order{order}", low, 1e-4))
        add(VerificationCheck(f"asymptote_high_order{order}", high, 1e-4))

    # nominal plants with the sign of b0, so that a negative b0 still gives negative feedback
    K = math.copysign(1.0, b0)
    plants = {1: PlantModel(order=1, K=K, T=1.0), 2: PlantModel(order=2, K=K, T=1.0, D=1.0)}
    gangs = {}
    for order in (1, 2):
        gangs[order] = gang_of_seven(plants[order], adrc[order])
        identity = _gang_of_four_identity(gangs[order], gang_of_seven(plants[order], equiv[order]))
        add(VerificationCheck(f"gang_of_four_identity_order{order}", identity, 1e-8))
    for order in (1, 2):
        add(VerificationCheck(f"s_plus_t_identity_order{order}", s_plus_t_residual(gangs[order]), 1e-9))

    for order, form in ((1, "pif"), (2, "pidf")):
        add(VerificationCheck(f"realization_fidelity_{form}", _realization_residual(equiv[order]), 1e-9))

    for order in (1, 2):
        add(VerificationCheck(f"setpoint_weight_consistency_order{order}", grids[order][1], 1e-12))

    add(VerificationCheck("filter_damping_range", _filter_damping_range(), 1e-3))
    add(VerificationCheck("settling_time_nominal_order1", _settling_time(adrc[1], plants[1], ts), 1.3 * ts))

    return checks


def __getattr__(name: str):
    # lti's step_response, which verify does not call: the benchmark's self-tests
    # (perfbench/test_perfbench.py) trace it as verify.step_response.  Looked up on each
    # access, as analysis.step_response is, so that lti is imported only when asked for
    if name == "step_response":
        from .lti import step_response

        return step_response
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
