"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q

They check that a seed fixes the inputs, that deliberately wrong outputs
count as failed operations while the program's known defects count as
defects, that the independent references agree with the
program where the paper says they must, and that tracing reaches names bound
by ``from .lti import step_response``.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def env():
    return run.child_env()


@pytest.fixture
def work(tmp_path):
    return tmp_path


@pytest.mark.parametrize("cls", [W.CliCold, W.Figures, W.DesignScan])
def test_same_seed_same_inputs(cls, work, env):
    a, b, c = (cls(ROOT, work, env, seed) for seed in (7, 7, 8))
    assert a.ops == b.ops
    assert a.ops != c.ops


def test_scan_covers_the_aim3_range(work, env):
    pts = W.DesignScan(ROOT, work, env, 1).ops
    ts = np.array([p.ts for p in pts])
    b0 = np.array([p.b0 for p in pts])
    assert ts.min() < 1e-2 and ts.max() > 1e2
    assert (b0 < 0).any() and (b0 > 0).any()
    assert all(np.sign(p.K) == np.sign(p.b0) for p in pts)


def _passing_point(scan):
    for p in scan.ops:
        verdict = scan.check(p, scan.run(p), None)
        if not (verdict.failed or verdict.defect):
            return p
    raise AssertionError("no design point passes")


def test_perturbed_b0_counts_as_failed_scan_op(work, env):
    scan = W.DesignScan(ROOT, work, env, 3)
    p = _passing_point(scan)
    bad = W.DesignScan(ROOT, work, env, 3, perturb_b0=1.01)
    verdict = bad.check(p, bad.run(p), None)
    assert verdict.failed and verdict.wrong
    categories = {c for c, _ in verdict.reasons}
    assert "C_y vs feedback_tf > 1e-9" in categories


def test_defects_repeat_exactly(work, env):
    def verdicts(seed):
        scan = W.DesignScan(ROOT, work, env, seed)
        return [(v.failed, v.defect) for v in (scan.check(p, scan.run(p), None) for p in scan.ops[:60])]

    first = verdicts(5)
    assert first == verdicts(5)
    assert any(defect for _, defect in first) and not any(failed for failed, _ in first)


def test_degree_loss_is_a_defect_not_a_failure(work, env):
    # ROADMAP defect (a): order 2 at T_s=0.01, g=100 loses the s^4 and s^5 terms
    scan = W.DesignScan(ROOT, work, env, 0)
    p = W.DesignPoint(2, 0.01, 100.0, 1.0, 1.0, 1.0, 1.0)
    verdict = scan.check(p, scan.run(p), None)
    assert verdict.defect and not verdict.failed
    assert "S_adrc degree != 2*order+1" in {c for c, _ in verdict.reasons}


def test_perturbed_verify_counts_as_defect_cli_op(work, env):
    cli = W.CliCold(ROOT, work, env, 0)
    op = W.CliOp("verify", 1.0, 10.0, 1.0)
    res = W.run_process([sys.executable, "-m", "adrcpid.cli", *op.argv(work), "--perturb-b0", "1.01"],
                        ROOT, env, work / "err.txt")
    verdict = cli.check(op, res, None)
    assert verdict.defect and not verdict.failed and not verdict.wrong
    clean = cli.check(op, cli.run(op), None)
    assert not (clean.failed or clean.defect)


def test_figure_rejecting_negative_b0_is_a_defect(work, env):
    cli = W.CliCold(ROOT, work, env, 0)
    verdict = cli.check(W.CliOp("figure3", 1.0, 10.0, -1.0), cli.run(W.CliOp("figure3", 1.0, 10.0, -1.0)), None)
    assert verdict.defect and not verdict.failed
    crashed = W.ProcessResult(2, "", "Traceback ...", 0)
    assert cli.check(W.CliOp("figure3", 1.0, 10.0, -1.0), crashed, None).failed


def test_wrong_tune_value_is_wrong(work, env):
    cli = W.CliCold(ROOT, work, env, 0)
    op = W.CliOp("tune2", 0.3, 25.0, -4.0)
    res = cli.run(op)
    assert not cli.check(op, res, None).failed
    kp = ref.pid_params(2, 0.3, 25.0, -4.0)["kp"]
    res.stdout = res.stdout.replace(f"kp = {kp:.10g}", f"kp = {kp * 1.01:.10g}")
    verdict = cli.check(op, res, None)
    assert verdict.failed and verdict.wrong


def test_figure_set_passes_and_traces_match_reference(work, env):
    figs = W.Figures(ROOT, work, env, 2)
    for fig in figs.ops:
        figs.run(fig)
        assert figs.check(fig, None, None).reasons == []
    v = W.Verdict()
    for fig, (kind, _, _) in figs.cli.FIGURES.items():
        if kind == "step":
            table = W._read_exact_csv(Path(figs.cfg.out_dir) / f"fig{fig}.csv", v)
            for seed in range(4):  # several seeded picks of the checked trace
                figs._check_trace(fig, table, random.Random(seed), v)
    assert v.reasons == []


def test_truncated_csv_is_wrong(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t,y\n0,0.10000000000000001\n0.5,0.1\n")
    v = W.Verdict()
    W._read_exact_csv(path, v)
    assert v.wrong


def test_tracer_reaches_imported_names_and_restores_them():
    from adrcpid import analysis, lti, verify

    original = lti.step_response
    tracer = Tracer().install()
    try:
        assert analysis.step_response is not original
        assert verify.step_response is analysis.step_response
        plant = analysis.PlantModel(1, 1.0, 1.0)
        from adrcpid import adrc

        ctrl = adrc.build_adrc(adrc.tune_first_order(1.0, 10.0))
        tracer.operation(1, lambda: analysis.step_response(analysis.closed_loop(plant, ctrl), 0, 1.0, 100))
    finally:
        tracer.uninstall()
    assert analysis.step_response is original and verify.step_response is original
    assert tracer.counts["lti.step_response"]["samples"] == 101
    self_s = tracer.self_times()
    op = next(s for s in tracer.spans if s[3] == "op")
    covered = sum(self_s.values())
    assert covered == pytest.approx(op[5] - op[4], rel=1e-9)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(lat)
    assert sum(x > value for x in lat) == 10 and beyond == 10 and pct == 75.0
    assert run.tail(lat[:8]) == (7.0, 100.0, 0)


def test_reference_task_follows_every_execution(env):
    class Fake:
        in_process = True
        ops = [0, 1, 2]
        run = staticmethod(lambda op: op)
        check = staticmethod(lambda op, res, exc: W.Verdict())

    tally = run.Tally(len(Fake.ops))
    assert run.run_untraced(Fake, 0.0, tally, env) == 1
    assert tally.executions == len(tally.reference) == 3
    assert all(t > 0 for t in tally.reference)


def test_cli_deck_has_a_fixed_mix(work, env):
    for seed in range(5):
        ops = W.CliCold(ROOT, work, env, seed).ops
        assert sorted(op.command for op in ops) == sorted(W.CLI_COMMANDS)
        signs = {op.command: op.b0 < 0 for op in ops}
        assert not signs["verify"]
        assert signs["tune1"] != signs["tune2"]
        assert sum(signs[f"figure{n}"] for n in (3, 4, 7, 8)) == 2


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
