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
import dataclasses
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .design import AdrcDesign, PidParams, equivalent_params, equivalent_realization

# Every command imports the above: the scalar design layer, which needs no
# numpy.  numpy and the layers only some commands run (lti, adrc, pid_equiv,
# analysis, svg, verify, configparser) are imported by the functions that
# use them, so that a fresh process loads only what its command needs:
# `tune` none of them, `figure` all but verify, `verify` all but svg.
if TYPE_CHECKING:
    import numpy as np

    from .adrc import TwoInputController
    from .analysis import PlantModel, SweepResult
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; round-trips losslessly through text."""

    order: int = 1
    ts: float = 1.0
    g: float = 10.0
    b0: float = 1.0
    plant_k: float = 1.0
    plant_t: float = 1.0
    plant_d: float = 1.0
    k_sweep: tuple[float, ...] | None = None
    t_sweep: tuple[float, ...] | None = None
    omega_min: float = 1e-2
    omega_max: float = 1e4
    omega_points: int = 600
    out_dir: str = "out"
    compare_pid: tuple[float, float, float, float, float] | None = None

    def validate(self) -> None:
        """Build every object the config describes, so that bad input fails
        here, before any work, with the message of the type that owns the rule."""
        from .analysis import PlantModel, sweep_plants
        from .lti import log_grid

        AdrcDesign(self.order, self.ts, self.g, self.b0)
        plant = PlantModel(2, self.plant_k, self.plant_t, self.plant_d)
        for parameter, field in SWEEP_FIELDS.items():
            if getattr(self, field) is not None:
                sweep_plants(plant, parameter, getattr(self, field))
        log_grid(self.omega_min, self.omega_max, self.omega_points)
        if self.compare_pid is not None:
            PidParams(*self.compare_pid)

    def to_text(self) -> str:
        import configparser

        cp = configparser.ConfigParser()
        for section, keys in _CONFIG_FIELDS.items():
            values = {
                key: fmt(getattr(self, field))
                for key, (field, _, fmt) in keys.items()
                if getattr(self, field) is not None
            }
            if values:
                cp[section] = values
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse the text ``to_text`` writes; unknown sections and keys are errors."""
        import configparser

        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"malformed config: {exc}") from exc
        if cp.defaults():
            raise ValueError(f"unknown config section [{cp.default_section}]")
        kwargs = {}
        for section in cp.sections():
            fields = _CONFIG_FIELDS.get(section)
            if fields is None:
                raise ValueError(f"unknown config section [{section}]")
            for key, value in cp[section].items():
                if key not in fields:
                    raise ValueError(f"unknown config key {key!r} in section [{section}]")
                field, parse, _ = fields[key]
                kwargs[field] = parse(value)
        return cls(**kwargs)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_floats(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(float(part) for part in items)


def _parse_pid(text: str) -> tuple[float, ...]:
    values = _parse_floats(text)
    if len(values) != 5:
        raise ValueError(f"compare pid needs exactly 5 values kp,ki,kd,Tf,b, got {len(values)}")
    return values


def _fmt_floats(values: tuple[float, ...]) -> str:
    return ",".join(_fmt(v) for v in values)


# The one statement of the config layout: section -> key -> (ExperimentConfig
# field, parser, formatter).  ``to_text`` writes it in this order and leaves
# out a field that is None, ``from_text`` reads it, and a command-line flag
# sets the field of the same name through the same parser.
_CONFIG_FIELDS = {
    "tuning": {
        "order": ("order", int, str),
        "ts": ("ts", float, _fmt),
        "g": ("g", float, _fmt),
        "b0": ("b0", float, _fmt),
    },
    "plant": {"k": ("plant_k", float, _fmt), "t": ("plant_t", float, _fmt), "d": ("plant_d", float, _fmt)},
    "sweep": {
        "k_values": ("k_sweep", _parse_floats, _fmt_floats),
        "t_values": ("t_sweep", _parse_floats, _fmt_floats),
    },
    "frequency": {
        "omega_min": ("omega_min", float, _fmt),
        "omega_max": ("omega_max", float, _fmt),
        "points": ("omega_points", int, str),
    },
    "output": {"dir": ("out_dir", str, str)},
    "compare": {"pid": ("compare_pid", _parse_pid, _fmt_floats)},
}

# swept plant parameter -> the ExperimentConfig field holding its values
SWEEP_FIELDS = {"K": "k_sweep", "T": "t_sweep"}


def _controllers(cfg: ExperimentConfig, order: int) -> dict[str, TwoInputController]:
    from .adrc import build_adrc
    from .pid_equiv import build_equivalent_controller

    design = AdrcDesign(order, cfg.ts, cfg.g, cfg.b0)
    ctrls = {
        "adrc": build_adrc(design),
        "equiv": build_equivalent_controller(equivalent_params(design)),
    }
    if cfg.compare_pid is not None:
        ctrls["pid"] = build_equivalent_controller(PidParams(*cfg.compare_pid))
    return ctrls


def _plant(cfg: ExperimentConfig, order: int) -> PlantModel:
    from .analysis import PlantModel

    return PlantModel(
        order=order,
        K=cfg.plant_k,
        T=cfg.plant_t,
        D=cfg.plant_d if order == 2 else None,
    )


def _capped(values: np.ndarray) -> np.ndarray:
    """Clamp a trace to +-CSV_CAP; a NaN sample takes the sign of the last non-NaN one.

    A trace that overflows turns NaN from then on, so its tail keeps the
    direction in which it diverged.  A NaN with nothing before it is +CSV_CAP.
    """
    import numpy as np

    v = np.clip(values, -CSV_CAP, CSV_CAP)
    nan = np.isnan(v)
    if nan.any():
        last = np.maximum.accumulate(np.where(nan, 0, np.arange(v.size)))
        v[nan] = np.where(v[last[nan]] < 0, -CSV_CAP, CSV_CAP)
    return v


def _write_csv(path: Path, names: list[str], columns: list[np.ndarray]) -> None:
    import numpy as np

    # one %-format for the whole body; "%.17g" prints the bytes of _fmt
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def _step_columns(sweep: SweepResult) -> tuple[list[str], list[np.ndarray], list[Series]]:
    from .svg import Series

    t = sweep.cases[0].table.t
    # CSV keeps every sample; the SVG gets a decimated copy to stay small
    stride = max(1, t.size // 1000)
    names = ["t"]
    columns = [t]
    series = []
    for value in sweep.values:
        for ctrl in sweep.controllers:
            case = sweep.case(value, ctrl)
            y = _capped(case.table.columns["y"])
            label = f"y_{ctrl}_{sweep.parameter}={value:g}"
            names.append(label)
            columns.append(y)
            series.append(Series(label, t[::stride], y[::stride]))
    return names, columns, series


def _figure_step(cfg: ExperimentConfig, order: int, parameter: str):
    from .analysis import STEP_HORIZON_FACTOR, STEP_N_STEPS, step_sweep
    from .svg import line_chart

    values = getattr(cfg, SWEEP_FIELDS[parameter])
    if values is None:
        values = DEFAULT_SWEEPS[(order, parameter)]
    sweep = step_sweep(
        _plant(cfg, order),
        parameter,
        values,
        _controllers(cfg, order),
        t_end=STEP_HORIZON_FACTOR * cfg.ts,
        n_steps=STEP_N_STEPS,
    )
    names, columns, series = _step_columns(sweep)
    markup = line_chart(
        series,
        title=f"Closed-loop step response, {parameter} sweep (order {order})",
        xlabel="t [s]",
        ylabel="y",
    )
    notes = [
        f"note: unstable case {parameter}={case.value:g} controller={case.controller}"
        for case in sweep.cases
        if not case.stable
    ]
    return names, columns, markup, notes


def _figure_bode(cfg: ExperimentConfig, order: int):
    import numpy as np

    from .adrc import extract_cr_cy
    from .lti import log_grid
    from .svg import Series, line_chart

    omega = log_grid(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    names = ["omega"]
    columns = [omega]
    series = []
    for ctrl_name, ctrl in _controllers(cfg, order).items():
        c_r, c_y = extract_cr_cy(ctrl)
        for channel, tf in (("Cr", c_r), ("Cy", c_y)):
            values = np.asarray(tf(1j * omega), dtype=complex)
            mag = np.abs(values)
            phase = np.degrees(np.unwrap(np.angle(values)))
            label = f"{ctrl_name}_{channel}"
            names.extend([f"mag_{label}", f"phase_deg_{label}"])
            columns.extend([mag, phase])
            series.append(Series(label, omega, mag))
    markup = line_chart(
        series,
        title=f"Controller frequency responses (order {order})",
        xlabel="omega [rad/s]",
        ylabel="magnitude",
        xlog=True,
        ylog=True,
    )
    return names, columns, markup, []


def _figure_gang(cfg: ExperimentConfig, order: int):
    import numpy as np

    from .analysis import gang_of_seven
    from .lti import log_grid
    from .svg import Series, line_chart

    omega = log_grid(cfg.omega_min, cfg.omega_max, cfg.omega_points)
    plant = _plant(cfg, order)
    names = ["omega"]
    columns = [omega]
    series = []
    for ctrl_name, ctrl in _controllers(cfg, order).items():
        g7 = gang_of_seven(plant, ctrl)
        for fn_name, tf in g7.named().items():
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                mag = np.abs(np.asarray(tf(1j * omega), dtype=complex))
            if not np.isfinite(mag).all():
                raise ValueError("the gang of seven at this plant is not representable: its magnitudes overflow")
            label = f"{fn_name}_{ctrl_name}"
            names.append(label)
            columns.append(mag)
            series.append(Series(label, omega, mag))
    markup = line_chart(
        series,
        title=f"Gang of seven magnitudes (order {order})",
        xlabel="omega [rad/s]",
        ylabel="magnitude",
        xlog=True,
        ylog=True,
    )
    return names, columns, markup, []


def compute_figure(fig_id: int, cfg: ExperimentConfig):
    """Columns, SVG markup and unstable-case notes for one experiment figure."""
    kind, parameter, order = FIGURES[fig_id]
    if kind == "step":
        return _figure_step(cfg, order, parameter)
    if kind == "bode":
        return _figure_bode(cfg, order)
    return _figure_gang(cfg, order)


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


def cmd_figure(fig_id: int, cfg: ExperimentConfig) -> int:
    try:
        paths, notes = write_figure(fig_id, cfg)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in notes + [f"wrote {path}" for path in paths]:
        print(line)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, parameter: str) -> int:
    names, columns, markup, notes = _figure_step(cfg, cfg.order, parameter)
    try:
        csv_path, _, _ = _write_outputs(cfg, f"sweep_{parameter}", names, columns, markup)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in notes + [f"wrote {csv_path}"]:
        print(line)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, perturb_b0: float) -> int:
    from .verify import run_verification

    checks = run_verification(ts=cfg.ts, g=cfg.g, b0=cfg.b0, perturb_b0=perturb_b0)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failed += 1
        print(f"{check.name}: residual={check.residual:.6e} tol={check.tol:.1e} {status}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="config file (flat key-value with sections)")
    parser.add_argument("--order", type=int, choices=(1, 2), default=None)
    parser.add_argument("--ts", type=float, default=None, help="desired settling time T_s")
    parser.add_argument("--g", type=float, default=None, help="observer pole multiplier")
    parser.add_argument("--b0", type=float, default=None, help="characteristic plant gain")
    parser.add_argument("--plant-k", type=float, default=None)
    parser.add_argument("--plant-t", type=float, default=None)
    parser.add_argument("--plant-d", type=float, default=None)
    parser.add_argument("--out", dest="out_dir", type=str, default=None, help="output directory")
    parser.add_argument(
        "--compare-pid",
        type=str,
        default=None,
        metavar="kp,ki,kd,Tf,b",
        help="extra user-supplied comparison controller",
    )


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"--config file not readable: {exc}") from exc
        cfg = ExperimentConfig.from_text(text)
    else:
        cfg = ExperimentConfig()
    flags = dict(vars(args))
    if flags.get("values") is not None:  # sweep --values lists the swept parameter's values
        flags[SWEEP_FIELDS[args.param]] = flags["values"]
    overrides = {
        field: parse(flags[field])
        for keys in _CONFIG_FIELDS.values()
        for field, parse, _ in keys.values()
        if flags.get(field) is not None
    }
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adrcpid",
        description="Linear ADRC as a tuning rule for filtered 2DOF PI(D) control",
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
    p_sweep.add_argument("--values", type=str, default=None, help="comma-separated plant values")
    _add_common_flags(p_sweep)

    p_verify = sub.add_parser("verify", help="run the numerical verification suite")
    _add_common_flags(p_verify)
    p_verify.add_argument(
        "--perturb-b0",
        type=float,
        default=1.0,
        help="scale b0 on the equivalence-check inputs only (self-test knob)",
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
            _, _, order = FIGURES[args.id]
            cfg = dataclasses.replace(cfg, order=order)
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


if __name__ == "__main__":
    run()
