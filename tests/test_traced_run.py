"""The benchmark's tracer (perfbench/tracing.py) over the package as it is.

The tracer looks up each traced layer function by name and reads the model
and result of every step_response call; a renamed layer or a changed result
type ends a traced benchmark run with an exception.  This runs a few
`design_scan` operations and `verify` under it.
"""

import json
from pathlib import Path

import adrcpid.verify  # noqa: F401  (the tracer wraps only loaded modules)
from adrcpid import cli

ROOT = Path(__file__).resolve().parent.parent
TRACED_PREFIXES = ("lti.", "adrc.", "pid_equiv.", "analysis.", "verify.")


def test_design_scan_and_verify_run_clean_under_the_tracer(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    scan = workloads.DesignScan(ROOT, tmp_path, {}, seed=201)
    ops = scan.ops[:4]
    tracer = tracing.Tracer().install()
    try:
        verdicts = [scan.check(op, tracer.operation(i, scan.run, op), None) for i, op in enumerate(ops)]
        code = tracer.operation(len(ops), cli.main, ["verify"])
    finally:
        tracer.uninstall()
    assert [v.reasons for v in verdicts if v.failed] == []
    assert code == cli.EXIT_OK, capsys.readouterr().out

    metrics = tracing.layer_metrics(tracing.merge([tracer.export()]), passes=1)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in benchmark["per_layer"] if m["name"].startswith(TRACED_PREFIXES)}
    assert declared - set(metrics) == set()
    calls = {name: metrics[f"{name}.calls"][0] for name in ("lti.step_response", "verify.run_verification")}
    # verify steps its settling trace in plain floats, not by step_response
    assert calls == {"lti.step_response": len(ops), "verify.run_verification": 1}
