"""The three benchmark workloads: seeded inputs, one operation, its checks.

Each workload builds ``ops``, a list of distinct operation inputs made from
the seed alone.  run.py runs the whole list again and again in a closed loop
with a single client, so every operation is repeated with identical inputs.
``check`` judges one execution against the references in reference.py and
returns a Verdict:

* ``defect`` -- the program showed one of the known defects of ROADMAP aim 3
  and said so, or missed a paper claim at its fixed tolerance: C_y off
  ``feedback_tf()`` by more than 1e-9, the gang of four apart by more than
  1e-8, S losing degree, ``verify`` exiting 1 with a verdict that matches
  its check lines, ``figure`` rejecting b0 < 0 with exit 2.  Counted per
  distinct operation and reported as ``defects.*``, never dropped.
* ``failed`` -- the operation raised, crashed, exited with a code its
  command does not document for that input, or returned a wrong output.
  Counted, never dropped.
* ``wrong`` -- the program returned a number that disagrees with an
  independent reference and did not say so (a mismatched ``tune`` value, a
  CSV that does not hold exact floats, a step trace off the reference, a
  ``verify`` verdict line that contradicts its exit code).  Any wrong
  output also fails the operation and makes the run's ``correct`` false.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

# aim-3 tuning range, log-uniform
TS_RANGE = (1e-3, 1e3)
G_RANGE = (1.0, 1e3)
B0_RANGE = (1e-3, 1e3)


@dataclass
class Verdict:
    failed: bool = False
    wrong: bool = False
    defect: bool = False
    reasons: list[tuple[str, str]] = field(default_factory=list)  # (category, detail)

    def miss(self, category: str, detail: str = "", wrong: bool = False) -> None:
        """The operation failed; ``wrong`` if its output was silently off."""
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reasons.append((category, detail))

    def known_defect(self, category: str, detail: str = "") -> None:
        """The program showed a known defect (see the module docstring)."""
        self.defect = True
        self.reasons.append((category, detail))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def stratified_log_uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws, one from each of n equal log-width strata, shuffled.

    Every seed then covers the whole range evenly, so the mix of cheap and
    costly inputs, and with it the timing, varies little from seed to seed.
    """
    a, b = math.log(lo), math.log(hi)
    out = [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(out)
    return out


def draw_tunings(rng: random.Random, signs: list[float]) -> list[tuple[float, float, float]]:
    """Stratified (T_s, g, b0) over the aim-3 range; b0 takes the given signs."""
    n = len(signs)
    ts = stratified_log_uniform(rng, *TS_RANGE, n)
    g = stratified_log_uniform(rng, *G_RANGE, n)
    b0 = stratified_log_uniform(rng, *B0_RANGE, n)
    return [(ts[i], g[i], signs[i] * b0[i]) for i in range(n)]


# ---------------------------------------------------------------- cli_cold

CLI_COMMANDS = ("tune1", "tune2", "verify", "figure3", "figure4", "figure7", "figure8")
_REPORT_LINE = re.compile(r"^\s+(\w+)\s*=\s*(\S+)$")
_VERDICT_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class CliOp:
    command: str
    ts: float
    g: float
    b0: float

    def argv(self, out_dir: Path) -> list[str]:
        tuning = ["--ts", repr(self.ts), "--g", repr(self.g), "--b0", repr(self.b0)]
        if self.command.startswith("tune"):
            return ["tune", "--order", self.command[-1], *tuning]
        if self.command == "verify":
            return ["verify", *tuning]
        return ["figure", self.command[len("figure"):], *tuning, "--out", str(out_dir)]


@dataclass
class ProcessResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_process(argv: list[str], cwd: Path, env: dict, stderr_path: Path) -> ProcessResult:
    """Run one child to completion; wait4 gives that child's own peak RSS."""
    with open(stderr_path, "w+") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ProcessResult(proc.returncode, out, err.read(), usage.ru_maxrss)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class CliCold:
    """Fresh `python -m adrcpid.cli` processes; import dominates each one."""

    name = "cli_cold"
    modules = ("adrcpid.cli",)
    in_process = False

    def __init__(self, root: Path, work: Path, env: dict, seed: int):
        self.root, self.work, self.env = root, work, env
        self.peak_rss_kb = 0
        rng = random.Random(seed)
        # Every command once, with a mix of b0 signs that is the same for
        # every seed, so the seed moves no command between early exit and full
        # run.  `tune` accepts either sign and gets one of each.  `figure` and
        # `verify` reject b0 < 0 before doing any work: two of the four figures
        # get b0 < 0, and `verify`, the slowest command, always runs in full.
        figure_signs = [-1.0, -1.0, 1.0, 1.0]
        rng.shuffle(figure_signs)
        signs = {"verify": 1.0, **dict(zip(CLI_COMMANDS[3:], figure_signs))}
        signs.update(zip(CLI_COMMANDS[:2], rng.sample((-1.0, 1.0), 2)))
        deck = list(CLI_COMMANDS)
        rng.shuffle(deck)
        tunings = draw_tunings(rng, [signs[cmd] for cmd in deck])
        self.ops = [CliOp(cmd, *tuning) for cmd, tuning in zip(deck, tunings)]

    def _spawn(self, prefix: list[str], op: CliOp) -> ProcessResult:
        res = run_process([sys.executable, *prefix, *op.argv(self.work / "cli_out")],
                          self.root, self.env, self.work / "stderr.txt")
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        return res

    def run(self, op: CliOp) -> ProcessResult:
        return self._spawn(["-m", "adrcpid.cli"], op)

    def run_traced(self, op: CliOp, op_id: int, spans_dir: Path) -> ProcessResult:
        runner = str(Path(__file__).with_name("traced_cli.py"))
        return self._spawn([runner, str(spans_dir / f"op{op_id}"), str(op_id)], op)

    def check(self, op: CliOp, res: ProcessResult | None, exc: BaseException | None) -> Verdict:
        v = Verdict()
        if exc is not None:
            v.miss("harness could not run the command", repr(exc), wrong=True)
            return v
        if op.command.startswith("tune"):
            self._check_tune(op, res, v)
        elif op.command == "verify":
            self._check_verify(res, v)
        elif res.returncode == 2 and op.b0 < 0 and "--b0 must be > 0" in res.stderr:
            v.known_defect(f"{op.command} rejects b0 < 0 (exit 2)", _last_line(res.stderr))
        elif res.returncode != 0:
            v.miss(f"{op.command} exit {res.returncode}", _last_line(res.stderr))
        else:
            fig = op.command[len("figure"):]
            for suffix in (".csv", ".svg"):
                path = self.work / "cli_out" / f"fig{fig}{suffix}"
                if f"wrote {path}" not in res.stdout or not path.is_file():
                    v.miss(f"{op.command} output missing", path.name, wrong=True)
        return v

    def _check_tune(self, op: CliOp, res: ProcessResult, v: Verdict) -> None:
        if res.returncode != 0:
            v.miss(f"{op.command} exit {res.returncode}", _last_line(res.stderr))
            return
        printed = {}
        for line in res.stdout.splitlines():
            m = _REPORT_LINE.match(line)
            if m:
                printed[m.group(1)] = float(m.group(2))
        for key, want in ref.tune_expected(int(op.command[-1]), op.ts, op.g, op.b0).items():
            got = printed.get(key)
            if got is None or not ref.rel_close(got, want, ref.PRINTED_TOL):
                v.miss("tune value off the closed form", f"{key}={got} vs {want!r}", wrong=True)

    def _check_verify(self, res: ProcessResult, v: Verdict) -> None:
        lines = res.stdout.strip().splitlines()
        m = _VERDICT_LINE.match(lines[-1]) if lines else None
        if m is None:
            v.miss(f"verify exit {res.returncode}", _last_line(res.stderr), wrong=res.returncode in (0, 1))
            return
        passed, total = int(m.group(1)), int(m.group(2))
        fails = sum(line.endswith(" FAIL") for line in lines)
        consistent = total - passed == fails and res.returncode == (0 if fails == 0 else 1)
        if not consistent:
            v.miss("verify verdict contradicts its check lines or exit code", lines[-1], wrong=True)
        elif fails:
            failing = [line.split(":")[0] for line in lines if line.endswith(" FAIL")]
            v.known_defect("verify exit 1 (paper claims missed)", ", ".join(failing))


# ----------------------------------------------------------------- figures


class Figures:
    """All eight paper figures in-process through cli.write_figure."""

    name = "figures"
    modules = ("adrcpid.cli",)
    in_process = True

    def __init__(self, root: Path, work: Path, env: dict, seed: int):
        from adrcpid import cli

        self.cli = cli
        self.cfg = dataclasses.replace(cli.ExperimentConfig(), out_dir=str(work / "figures"))
        self.rng = random.Random(seed)  # picks the step trace each check compares
        self.ops = list(cli.FIGURES)  # one operation writes one figure
        self.rng.shuffle(self.ops)

    def run(self, fig: int) -> None:
        self.cli.write_figure(fig, dataclasses.replace(self.cfg, order=self.cli.FIGURES[fig][2]))

    def check(self, fig: int, res, exc: BaseException | None) -> Verdict:
        v = Verdict()
        if exc is not None:
            v.miss(f"raised {type(exc).__name__}", str(exc))
            return v
        out = Path(self.cfg.out_dir)
        table = _read_exact_csv(out / f"fig{fig}.csv", v)
        _check_svg(out / f"fig{fig}.svg", v)
        kind, _, _ = self.cli.FIGURES[fig]
        if kind == "gang" and table:
            for fn in ("S", "PS", "CS", "T"):
                a, e = table[f"{fn}_adrc"], table[f"{fn}_equiv"]
                gap = float(np.max(np.abs(a - e) / np.maximum(np.abs(a), np.abs(e))))
                if not gap < ref.GANG_TOL:
                    v.known_defect("gang of four adrc vs equiv > 1e-8", f"figure {fig} {fn}: {gap:.2e}")
        if kind == "step" and table:
            self._check_trace(fig, table, self.rng, v)
        return v

    def _check_trace(self, fig: int, table: dict, rng: random.Random, v: Verdict) -> None:
        """One seeded trace of a step figure against the independent integration."""
        label = rng.choice(sorted(k for k in table if k.startswith("y_")))
        _, ctrl, setting = label.split("_", 2)
        param, value = setting.split("=")
        _, _, order = self.cli.FIGURES[fig]
        c = self.cfg
        plant = {"K": c.plant_k, "T": c.plant_t, "D": c.plant_d}
        plant[param] = float(value)
        idx = np.linspace(0, table["t"].size - 1, 41).astype(int)
        want = ref.reference_step(ctrl, order, c.ts, c.g, c.b0, plant["K"], plant["T"], plant["D"],
                                  table["t"][idx])
        gap = ref.trace_gap(table[label][idx], want)
        if not gap <= ref.TRACE_TOL:
            v.miss("step trace off the independent integration", f"figure {fig} {label}: {gap:.2e}", wrong=True)


def _read_exact_csv(path: Path, v: Verdict) -> dict[str, np.ndarray]:
    """Columns of a CSV whose every value reads back as the float written."""
    try:
        header, _, body = path.read_text().partition("\n")
    except OSError as exc:
        v.miss("CSV unreadable", f"{path.name}: {exc}", wrong=True)
        return {}
    names = header.split(",")
    flat = body.rstrip("\n").replace("\n", ",")
    tokens = flat.split(",")
    rows = body.count("\n")
    if not body or len(tokens) != rows * len(names):
        v.miss("CSV ragged or empty", path.name, wrong=True)
        return {}
    values = np.array(tokens, dtype=float)
    # values are written at 17 significant digits, so formatting them again
    # reproduces the text exactly when nothing was lost
    if ("%.17g," * len(tokens) % tuple(values.tolist()))[:-1] != flat:
        v.miss("CSV values not exact floats", path.name, wrong=True)
    values = values.reshape(rows, len(names))
    return {name: values[:, i] for i, name in enumerate(names)}


def _check_svg(path: Path, v: Verdict) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        v.miss("SVG unreadable", f"{path.name}: {exc}", wrong=True)
        return
    if not root.tag.endswith("svg") or root.find("{http://www.w3.org/2000/svg}polyline") is None:
        v.miss("SVG without a plotted line", path.name, wrong=True)


# ------------------------------------------------------------- design_scan

SCAN_POINTS = 400
SCAN_STEP_SAMPLES = 300
SCAN_OMEGA = np.logspace(-2, 3, 200)  # times 1/T_s: the grid follows the design bandwidth


@dataclass(frozen=True)
class DesignPoint:
    order: int
    ts: float
    g: float
    b0: float
    K: float
    T: float
    D: float


class DesignScan:
    """One seeded design point per operation over the whole aim-3 range."""

    name = "design_scan"
    modules = ("adrcpid.adrc", "adrcpid.pid_equiv", "adrcpid.analysis", "adrcpid.lti")
    in_process = True

    def __init__(self, root: Path, work: Path, env: dict, seed: int, perturb_b0: float = 1.0):
        from adrcpid import adrc, analysis, lti, pid_equiv

        self.adrc, self.analysis, self.lti, self.pid_equiv = adrc, analysis, lti, pid_equiv
        self.perturb_b0 = perturb_b0
        rng = random.Random(seed)
        signs = [1.0, -1.0] * (SCAN_POINTS // 2)
        rng.shuffle(signs)
        self.ops = []
        for i, (ts, g, b0) in enumerate(draw_tunings(rng, signs)):
            # plant perturbed around the nominal K=1, T=1, D=1, sign matched to b0
            K = math.copysign(_log_uniform(rng, 0.5, 2.0), b0)
            T = _log_uniform(rng, 0.5, 2.0)
            D = _log_uniform(rng, 0.7, 1.4)
            self.ops.append(DesignPoint(1 + i % 2, ts, g, b0, K, T, D))

    def run(self, p: DesignPoint):
        adrc, analysis, lti, pid_equiv = self.adrc, self.analysis, self.lti, self.pid_equiv
        tune = adrc.tune_first_order if p.order == 1 else adrc.tune_second_order
        design = tune(p.ts, p.g, p.b0)
        params = pid_equiv.equivalent_params(tune(p.ts, p.g, p.b0 * self.perturb_b0))
        ctrl = adrc.build_adrc(design)
        equiv = pid_equiv.build_equivalent_controller(params)
        c_r, c_y = adrc.extract_cr_cy(ctrl)
        feedback = params.feedback_tf()
        plant = analysis.PlantModel(p.order, p.K, p.T, p.D if p.order == 2 else None)
        gangs = (analysis.gang_of_seven(plant, ctrl), analysis.gang_of_seven(plant, equiv))
        loop = analysis.closed_loop(plant, ctrl)
        table = lti.step_response(loop, 0, t_end=3.0 * p.ts, n_steps=SCAN_STEP_SAMPLES)
        return params, c_y, feedback, gangs, table

    def check(self, p: DesignPoint, res, exc: BaseException | None) -> Verdict:
        v = Verdict()
        if exc is not None:
            v.miss(f"raised {type(exc).__name__}", str(exc))
            return v
        params, c_y, feedback, (g_adrc, g_equiv), _ = res
        want = ref.pid_params(p.order, p.ts, p.g, p.b0)
        for key, value in want.items():
            if not ref.rel_close(getattr(params, key), value, 1e-12):
                v.miss("PI(D)F parameters off the closed form", f"{key}={getattr(params, key)!r} vs {value!r}",
                       wrong=True)
        cy_gap = ref.monic_residual(c_y.num.coeffs, c_y.den.coeffs, feedback.num.coeffs, feedback.den.coeffs)
        if not cy_gap < ref.COEFF_TOL:
            v.known_defect("C_y vs feedback_tf > 1e-9", f"{p}: {cy_gap:.2e}")
        omega = SCAN_OMEGA / p.ts
        worst = 0.0
        for fn in ("S", "PS", "CS", "T"):
            ta, te = g_adrc.named()[fn], g_equiv.named()[fn]
            ma = ref.magnitude(ta.num.coeffs, ta.den.coeffs, omega)
            me = ref.magnitude(te.num.coeffs, te.den.coeffs, omega)
            worst = max(worst, float(np.max(np.abs(ma - me) / np.maximum(ma, me))))
        if not worst < ref.GANG_TOL:
            v.known_defect("gang of four adrc vs equiv > 1e-8", f"{p}: {worst:.2e}")
        for tag, gang in (("adrc", g_adrc), ("equiv", g_equiv)):
            if gang.S.den.degree != 2 * p.order + 1:
                v.known_defect(f"S_{tag} degree != 2*order+1", f"{p}: degree {gang.S.den.degree}")
        return v


WORKLOADS = {w.name: w for w in (CliCold, Figures, DesignScan)}
