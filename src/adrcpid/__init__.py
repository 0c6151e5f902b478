"""Linear ADRC as a tuning rule for filtered 2DOF PI(D) controllers.

The package builds linear active disturbance-rejection controllers for
first- and second-order plants from (T_s, g, b0), converts them to exact
measurement-channel-equivalent PI+F / PID+F parameters, and provides the
LTI machinery (transfer functions, state space, step responses) plus an
experiment suite to verify the equivalence numerically.

Importing the package loads none of its modules: each public name is
imported from its defining module the first time it is asked for, so that
``python -m adrcpid.cli`` loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports; the one listing of the API,
# behind __all__, __getattr__ and __dir__
_EXPORTS = {
    "tf": (
        "Polynomial",
        "RationalTransferFunction",
        "is_stable",
        "log_grid",
        "tf_residual",
    ),
    "lti": (
        "StateSpaceModel",
        "StepResponseTable",
        "SweepResult",
        "ss_to_tf",
        "step_response",
        "step_sweep",
        "tf_minreal",
    ),
    "design": (
        "AdrcDesign",
        "PidParams",
        "equivalent_params",
        "tune_first_order",
        "tune_second_order",
    ),
    "adrc": (
        "TwoInputController",
        "build_adrc",
        "extract_cr_cy",
    ),
    "pid_equiv": (
        "build_equivalent_controller",
        "reference_channel_gap",
        "verify_asymptotes",
    ),
    "analysis": (
        "GangOfSeven",
        "PlantModel",
        "closed_loop",
        "gang_of_seven",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
