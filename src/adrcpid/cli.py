"""Command-line interface.

Subcommands:
  tune      print design gains and the equivalent PI(D)F parameters
  figure N  reproduce experiment N (1-8) as CSV data plus an SVG plot
  sweep     run a custom plant-parameter step sweep
  verify    run the numerical equivalence/property suite

Exit codes: 0 ok, 1 verification failure, 2 bad arguments, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from .design import AdrcDesign, PidParams, equivalent_params, equivalent_realization

# Every command imports the above: the scalar design layer, which needs no
# numpy, and its value base.  The layers only some commands run (config, tf,
# lti, adrc, pid_equiv, analysis, svg, verify) are imported by the functions
# that use them, so that a fresh process loads only what its command needs:
# `tune` none of them, `figure` all but verify, `verify` all but svg and lti.
# The config module holds the package's one dataclass, so `tune` loads no
# `dataclasses` (nor `inspect`, which it imports); `cli.ExperimentConfig` is
# served from there on first access.  configparser is loaded only to read a
# `--config` file.  Of the layers only lti, the state-space half, imports
# numpy, and only the step figures (1, 2, 5, 6) and `sweep`, which make step
# tables, load it: the bode and gang figures (3, 4, 7, 8) and `verify` run on
# tf's plain floats.  `verify` steps its one settling trace in plain floats,
# because that costs it less than importing numpy would.
if TYPE_CHECKING:
    import numpy as np

    from .adrc import TwoInputController
    from .analysis import PlantModel, SweepResult
    from .config import ExperimentConfig
    from .svg import Series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_IO = 3

CSV_CAP = 1e6  # diverging traces are clamped to this magnitude on output

DEFAULT_SWEEPS = {
    (1, "K"): (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0),
    (1, "T"): (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0),
    (2, "K"): (0.1, 0.2, 0.5, 1.0, 2.0, 5.0),
    (2, "T"): (0.1, 0.2, 0.5, 1.0, 2.0, 5.0),
}

# figure id -> (kind, swept parameter or None, plant order)
FIGURES = {
    1: ("step", "K", 1),
    2: ("step", "T", 1),
    3: ("bode", None, 1),
    4: ("gang", None, 1),
    5: ("step", "K", 2),
    6: ("step", "T", 2),
    7: ("bode", None, 2),
    8: ("gang", None, 2),
}


def _controllers(cfg: ExperimentConfig, order: int) -> dict[str, TwoInputController]:
    from .adrc import build_adrc
    from .pid_equiv import build_equivalent_controller

    design = AdrcDesign(order, cfg.ts, cfg.g, cfg.b0)
    ctrls = {"adrc": build_adrc(design), "equiv": build_equivalent_controller(equivalent_params(design))}
    if cfg.compare_pid is not None:
        ctrls["pid"] = build_equivalent_controller(PidParams(*cfg.compare_pid))
    return ctrls


def _pid_refusal(cfg: ExperimentConfig, reason: ValueError) -> ValueError:
    """The refusal of the --compare-pid controller's columns, naming its values as a PidParams refusal does."""
    values = ", ".join(f"{name}={value!r}" for name, value in zip(("kp", "ki", "kd", "Tf", "b"), cfg.compare_pid))
    return ValueError(f"{values} are out of range: {reason}")


def _per_controller(cfg: ExperimentConfig, order: int, columns: Callable[[str, TwoInputController], object]) -> dict:
    """columns(name, controller) for each controller of a figure, by name and in order; the
    one place where a refusal of the --compare-pid controller's columns names its values."""
    out = {}
    for name, ctrl in _controllers(cfg, order).items():
        try:
            out[name] = columns(name, ctrl)
        except ValueError as exc:
            if name != "pid":
                raise
            raise _pid_refusal(cfg, exc) from None
    return out


def _capped(values: np.ndarray) -> tuple[np.ndarray, int]:
    """A trace clamped to +-CSV_CAP, and how many of its samples were past that or NaN.

    A NaN sample takes the sign of the last non-NaN one: a trace that overflows
    turns NaN from then on, so its tail keeps the direction in which it
    diverged.  A NaN with nothing before it is +CSV_CAP.
    """
    import numpy as np

    count = int(np.count_nonzero(~(np.abs(values) <= CSV_CAP)))
    v = np.clip(values, -CSV_CAP, CSV_CAP)
    nan = np.isnan(v)
    if nan.any():
        last = np.maximum.accumulate(np.where(nan, 0, np.arange(v.size)))
        v[nan] = np.where(v[last[nan]] < 0, -CSV_CAP, CSV_CAP)
    return v, count


def _write_csv(path: Path, names: list[str], columns: list[Sequence[float]]) -> None:
    # one %-format for the whole body; "%.17g" prints the bytes of config._fmt
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns))))


def _step_columns(sweeps: dict[str, SweepResult]) -> tuple[list[str], list[list[float]], list[Series], list[str]]:
    """The CSV names and columns of the sweeps of a figure's controllers, by name, value-major;
    their SVG series, and one note per unstable case, then one per clamped column, each followed
    by one more where its case is stable, which contradicts the clamp."""
    from .analysis import _case_label
    from .svg import Series

    first = next(iter(sweeps.values()))
    t = first.cases[0].table.t.tolist()
    # CSV keeps every sample; the SVG gets a decimated copy to stay small
    stride = max(1, len(t) // 1000)
    names = ["t"]
    columns = [t]
    series = []
    unstable = []
    clamps = []
    for cases in zip(*(sweep.cases for sweep in sweeps.values())):
        for controller, case in zip(sweeps, cases):
            case_label = _case_label(first.parameter, case.value)
            who = f"case {case_label} controller={controller}"
            if not case.stable:
                unstable.append(f"note: unstable {who}")
            y, clamped = _capped(case.table.columns["y"])
            y = y.tolist()
            label = f"y_{controller}_{case_label}"
            names.append(label)
            columns.append(y)
            series.append(Series(label, t[::stride], y[::stride]))
            if clamped:
                clamps.append(f"note: column {label} clamped to +-{CSV_CAP:g} at {clamped} of {len(y)} samples")
                if case.stable:  # a stable loop's trace stays bounded, so this one is wrong
                    clamps.append(f"note: stable {who} has a clamped trace that cannot be trusted")
    return names, columns, series, unstable + clamps


def _figure_step(cfg: ExperimentConfig, order: int, parameter: str):
    from .analysis import STEP_HORIZON_FACTOR, step_sweep
    from .config import SWEEP_FIELDS
    from .svg import line_chart

    values = getattr(cfg, SWEEP_FIELDS[parameter])
    if values is None:
        values = DEFAULT_SWEEPS[(order, parameter)]
    plant, t_end = cfg.plant(order), STEP_HORIZON_FACTOR * cfg.ts
    sweeps = _per_controller(cfg, order, lambda _, ctrl: step_sweep(plant, parameter, values, ctrl, t_end))
    names, columns, series, notes = _step_columns(sweeps)
    markup = line_chart(
        series,
        title=f"Closed-loop step response, {parameter} sweep (order {order})",
        xlabel="t [s]",
        ylabel="y",
    )
    return names, columns, markup, notes


def _magnitude(value: complex) -> float:
    """|value|, inf where it overflows."""
    try:
        return abs(value)
    except OverflowError:
        return math.inf


def _magnitudes(values: list[complex]) -> list[float]:
    """|v| for each of values, inf where it overflows: abs over the whole column, and
    value by value only for a column where abs overflows."""
    try:
        return list(map(abs, values))
    except OverflowError:
        return list(map(_magnitude, values))


def _phase_degrees(values: list[complex]) -> list[float]:
    """The phase of values in degrees, unwrapped, with the arithmetic of numpy's
    degrees(unwrap(angle(values))): a jump between neighbours of pi or more is
    taken back by the multiple of 2 pi that brings it into [-pi, pi], and a
    radian is 180/pi degrees."""
    phase = [math.atan2(v.imag, v.real) for v in values]
    unwrapped = phase[:1]
    correction = 0.0
    for previous, current in zip(phase, phase[1:]):
        jump = current - previous
        if not abs(jump) < math.pi:  # NaN too
            wrapped = (jump + math.pi) % (2.0 * math.pi) - math.pi
            if wrapped == -math.pi and jump > 0:
                wrapped = math.pi
            correction += wrapped - jump
        unwrapped.append(current + correction)
    return [x * (180.0 / math.pi) for x in unwrapped]


def _bode_columns(points: list[complex], name: str, ctrl: TwoInputController) -> list[tuple]:
    """The magnitude and phase columns of a controller's C_r and C_y; the magnitudes are drawn."""
    from .adrc import extract_cr_cy
    from .tf import _evaluate

    entries = []
    for channel, values in zip(("Cr", "Cy"), _evaluate(extract_cr_cy(ctrl), points)):
        label = f"{name}_{channel}"
        entries.append((f"mag_{label}", _magnitudes(values), label))
        entries.append((f"phase_deg_{label}", _phase_degrees(values), None))
    return entries


def _gang_columns(plant: PlantModel, points: list[complex], name: str, ctrl: TwoInputController) -> list[tuple]:
    """The drawn magnitude column of each member of a controller's gang of seven at plant."""
    from .analysis import gang_of_seven
    from .tf import _evaluate

    members = gang_of_seven(plant, ctrl).named()
    entries = []
    for fn_name, values in zip(members, _evaluate(members.values(), points)):
        mag = _magnitudes(values)
        if not all(map(math.isfinite, mag)):
            raise ValueError("the gang of seven at this plant is not representable: its magnitudes overflow")
        label = f"{fn_name}_{name}"
        entries.append((label, mag, label))
    return entries


def _figure_frequency(cfg: ExperimentConfig, order: int, columns: Callable[..., list[tuple]], title: str):
    """A frequency figure: columns(points, name, controller) gives each controller's
    (CSV name, values, SVG label or None) entries on the figure's grid."""
    from .svg import Series, line_chart
    from .tf import log_grid

    omega = log_grid(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    points = [1j * w for w in omega]
    names, values, series = ["omega"], [omega], []
    for entries in _per_controller(cfg, order, partial(columns, points)).values():
        for name, column, label in entries:
            names.append(name)
            values.append(column)
            if label is not None:
                series.append(Series(label, omega, column))
    markup = line_chart(series, title=f"{title} (order {order})", xlabel="omega [rad/s]", ylabel="magnitude", log=True)
    return names, values, markup, []


def compute_figure(fig_id: int, cfg: ExperimentConfig):
    """Columns, SVG markup and unstable-case notes for one experiment figure."""
    kind, parameter, order = FIGURES[fig_id]
    if kind == "step":
        return _figure_step(cfg, order, parameter)
    if kind == "bode":
        return _figure_frequency(cfg, order, _bode_columns, "Controller frequency responses")
    return _figure_frequency(cfg, order, partial(_gang_columns, cfg.plant(order)), "Gang of seven magnitudes")


def _write_outputs(
    cfg: ExperimentConfig, stem: str, names: list[str], columns: list[np.ndarray], markup: str
) -> list[Path]:
    """Write <stem>.csv, <stem>.svg, and the resolved config echo."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    svg_path = out / f"{stem}.svg"
    _write_csv(csv_path, names, columns)
    svg_path.write_text(markup, newline="\n")
    cfg_path = out / "config_used.cfg"
    cfg_path.write_text(cfg.to_text(), newline="\n")
    return [csv_path, svg_path, cfg_path]


def write_figure(fig_id: int, cfg: ExperimentConfig) -> tuple[list[Path], list[str]]:
    """Write fig<id>.csv, fig<id>.svg and the config echo; return the paths
    and one note per unstable case of a step figure."""
    names, columns, markup, notes = compute_figure(fig_id, cfg)
    return _write_outputs(cfg, f"fig{fig_id}", names, columns, markup), notes


def _print_matrix(name: str, rows: tuple[tuple[float, ...], ...]) -> None:
    # the layout of np.array2string with separator ", ": a realization row is
    # far shorter than its 75-character wrap
    body = ",\n ".join("[" + ", ".join(map(_sig, row)) + "]" for row in rows)
    print(f"  {name} = [{body}]")


# plant order -> (design name, design keys, PI(D) form, parameter keys) of the tune report
TUNE_REPORT = {
    1: ("first-order", ("K_P", "l1", "l2"), "PI+F", ("kp", "ki", "Tf", "b")),
    2: ("second-order", ("omega_cl", "K_P", "K_D", "l1", "l2", "l3"), "PID+F", ("kp", "ki", "kd", "Tf", "d", "b")),
}


def cmd_tune(order: int, ts: float, g: float, b0: float) -> int:
    design = AdrcDesign(order, ts, g, b0)
    params = equivalent_params(design)
    title, design_keys, form, param_keys = TUNE_REPORT[order]
    print(f"{title} ADRC design (T_s={_sig(ts)}, g={_sig(g)}, b0={_sig(b0)})")
    for key in design_keys:
        print(f"  {key:<3} = {_sig(getattr(design, key))}")
    print(f"equivalent {form} parameters (filtered measurement, set-point weight b)")
    for key in param_keys:
        print(f"  {key:<2} = {_sig(getattr(params, key))}")
    print("state-space realization (inputs [r, y], output u)")
    for name, rows in zip("ABCD", equivalent_realization(params)):
        _print_matrix(name, rows)
    return EXIT_OK


def _sig(v: float) -> str:
    return format(float(v), ".10g")


def _report(write: Callable[[], tuple[list[Path], list[str]]]) -> int:
    """Print the notes, then the paths, of (paths, notes) = write(); EXIT_IO where it cannot write."""
    try:
        paths, notes = write()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in notes + [f"wrote {path}" for path in paths]:
        print(line)
    return EXIT_OK


def cmd_figure(fig_id: int, cfg: ExperimentConfig) -> int:
    return _report(partial(write_figure, fig_id, cfg))


def cmd_sweep(cfg: ExperimentConfig, parameter: str) -> int:
    names, columns, markup, notes = _figure_step(cfg, cfg.order, parameter)
    write = partial(_write_outputs, cfg, f"sweep_{parameter}", names, columns, markup)
    return _report(lambda: (write()[:1], notes))  # a sweep reports its CSV alone


def cmd_verify(cfg: ExperimentConfig, perturb_b0: float) -> int:
    from .verify import run_verification

    checks = run_verification(ts=cfg.ts, g=cfg.g, b0=cfg.b0, perturb_b0=perturb_b0)
    failed = sum(not check.passed for check in checks)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: residual={check.residual:.6e} tol={check.tol:.1e} {status}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="config file (flat key-value with sections)")
    parser.add_argument("--ts", type=float, default=None, help="desired settling time T_s")
    parser.add_argument("--g", type=float, default=None, help="observer pole multiplier")
    parser.add_argument("--b0", type=float, default=None, help="characteristic plant gain")
    parser.add_argument("--plant-k", type=float, default=None)
    parser.add_argument("--plant-t", type=float, default=None)
    parser.add_argument("--plant-d", type=float, default=None)
    parser.add_argument("--out", dest="out_dir", type=str, default=None, help="output directory")
    parser.add_argument("--compare-pid", metavar="kp,ki,kd,Tf,b", help="extra user-supplied comparison controller")


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    from .config import SWEEP_FIELDS, ExperimentConfig

    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(f"--config file not readable: {exc}") from exc
        cfg = ExperimentConfig.from_text(text)
    else:
        cfg = ExperimentConfig()
    flags = dict(vars(args))
    if flags.get("values") is not None:  # sweep --values lists the swept parameter's values
        flags[SWEEP_FIELDS[args.param]] = flags["values"]
    if args.command == "figure":  # a figure runs at the plant order of its experiment
        flags["order"] = FIGURES[args.id][2]
    cfg = cfg.with_flags(flags)
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a token starting with - and a digit (or -. and a
    digit) for a value, so that `--b0 -1e-5` and `--values -1e-5,2` parse as their `=`
    forms; argparse takes only a negative integer or decimal for one, and ends
    `--b0 -1e-5` with `expected one argument`.  No option starts with - and a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adrcpid", description="Linear ADRC as a tuning rule for filtered 2DOF PI(D) control"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="print design gains and equivalent PI(D)F parameters")
    p_tune.add_argument("--order", type=int, choices=(1, 2), required=True)
    p_tune.add_argument("--ts", type=float, required=True)
    p_tune.add_argument("--g", type=float, required=True)
    p_tune.add_argument("--b0", type=float, default=1.0)

    p_fig = sub.add_parser("figure", help="reproduce experiment figure 1-8")
    p_fig.add_argument("id", type=int, choices=sorted(FIGURES), help="figure number")
    _add_common_flags(p_fig)

    p_sweep = sub.add_parser("sweep", help="custom plant-parameter step sweep")
    p_sweep.add_argument("--param", choices=("K", "T"), required=True)
    p_sweep.add_argument("--order", type=int, choices=(1, 2), default=None)
    p_sweep.add_argument("--values", type=str, default=None, help="comma-separated plant values")
    _add_common_flags(p_sweep)

    p_verify = sub.add_parser("verify", help="run the numerical verification suite")
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--perturb-b0", type=float, default=1.0, help="scale b0 on the equivalence-check inputs only (self-test knob)"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        if args.command == "tune":
            return cmd_tune(args.order, args.ts, args.g, args.b0)
        cfg = _resolve_config(args)
        if args.command == "figure":
            return cmd_figure(args.id, cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param)
        if args.command == "verify":
            return cmd_verify(cfg, args.perturb_b0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    sys.exit(main())


def __getattr__(name: str):
    # the config type, which the benchmark reaches here; imported only when asked for,
    # so that `tune` loads neither the config module nor dataclasses
    if name == "ExperimentConfig":
        from .config import ExperimentConfig

        return ExperimentConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    run()
