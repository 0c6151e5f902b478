"""Linear ADRC as a tuning rule for filtered 2DOF PI(D) controllers.

The package builds linear active disturbance-rejection controllers for
first- and second-order plants from (T_s, g, b0), converts them to exact
measurement-channel-equivalent PI+F / PID+F parameters, and provides the
LTI machinery (transfer functions, state space, frequency and step
responses) plus an experiment suite to verify the equivalence numerically.
"""

from .lti import (
    AlgebraicLoopError,
    FrequencyResponseTable,
    ImproperTransferFunctionError,
    Polynomial,
    RationalTransferFunction,
    StateSpaceModel,
    StepResponseTable,
    freq_response,
    is_stable,
    log_grid,
    poles,
    ss_to_tf,
    step_response,
    tf_add,
    tf_is_close,
    tf_minreal,
    tf_multiply,
    tf_residual,
    tf_to_ss,
)
from .adrc import (
    AdrcDesign,
    TwoInputController,
    build_adrc,
    extract_cr_cy,
    observer_matrix,
    tune_first_order,
    tune_second_order,
)
from .pid_equiv import (
    AsymptoteReport,
    PidParams,
    build_equivalent_controller,
    build_pidf_controller,
    build_pif_controller,
    equivalent_params,
    pidf_from_adrc,
    pif_from_adrc,
    reference_channel_gap,
    verify_asymptotes,
)
from .analysis import (
    GangOfSeven,
    LoopMargins,
    PlantModel,
    SweepResult,
    bode_set,
    closed_loop,
    gang_of_seven,
    loop_margins,
    max_magnitude,
    step_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicLoopError",
    "AdrcDesign",
    "AsymptoteReport",
    "FrequencyResponseTable",
    "GangOfSeven",
    "ImproperTransferFunctionError",
    "LoopMargins",
    "PidParams",
    "PlantModel",
    "Polynomial",
    "RationalTransferFunction",
    "StateSpaceModel",
    "StepResponseTable",
    "SweepResult",
    "TwoInputController",
    "bode_set",
    "build_adrc",
    "build_equivalent_controller",
    "build_pidf_controller",
    "build_pif_controller",
    "closed_loop",
    "equivalent_params",
    "extract_cr_cy",
    "freq_response",
    "gang_of_seven",
    "is_stable",
    "log_grid",
    "loop_margins",
    "max_magnitude",
    "observer_matrix",
    "pidf_from_adrc",
    "pif_from_adrc",
    "poles",
    "reference_channel_gap",
    "ss_to_tf",
    "step_response",
    "step_sweep",
    "tf_add",
    "tf_is_close",
    "tf_minreal",
    "tf_multiply",
    "tf_residual",
    "tf_to_ss",
    "tune_first_order",
    "tune_second_order",
    "verify_asymptotes",
]
