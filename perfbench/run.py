"""adrcpid benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload cli_cold|figures|design_scan|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve against the checkout that holds this file.
Each workload is a closed loop with one client: the next operation starts
when the previous one ends.  A workload's seeded list of distinct operations
is run in whole passes until S seconds have passed, so each operation runs
several times with identical inputs.  Every execution is checked (see
workloads.py) and counts in ``attempted`` and ``failed``; a known defect the
program shows counts in ``defects.*`` instead.

Latency metrics use each operation's median time over its repeats: a shared
host's speed jitters from one call to the next, and the median of the
repeats is steadier than their best or their mean.  op_p50_ms and
op_tail_ms are taken over those per-operation medians; ops_per_s is the
number of distinct operations over the sum of their medians.

A shared host also changes speed by up to ~40 % for minutes at a time,
longer than a run, which no statistic inside one run can remove.  So every
execution is followed by a fixed reference task that runs no adrcpid code,
and the ``*_adj`` metrics rescale the times to the host speed at which that
task's median takes REFERENCE_S: time * REFERENCE_S / (median reference
time in this run).  A change to the program moves them as it moves the raw
times; a change of host speed during the run moves both the operations and
the reference, and cancels.

The report prints each metric by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
runs every pass twice, untraced and then traced, and reports per-layer
metrics per pass plus the tracing overhead (traced minus untraced time).
Scratch files live in .perfbench/ and are removed at exit; the spans of a
traced run stay there.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with at least this many samples above it
# Nominal time of the reference task (in-process, out-of-process) for the
# *_adj metrics; near its median on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = {True: 0.005, False: 0.5}
WORKLOAD_NAMES = ("cli_cold", "figures", "design_scan")
# One process, no added threads: BLAS pools pinned before numpy loads, here
# and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup(modules: tuple[str, ...], env: dict) -> list[float]:
    """Seconds from starting a fresh python to having imported the modules.

    The child prints CLOCK_MONOTONIC after its imports; that clock is shared
    by all processes, so the parent subtracts its own reading from before
    the spawn.  One untimed warm-up child writes the bytecode caches first.
    """
    code = "import time\n" + "".join(f"import {m}\n" for m in modules) + "print(time.monotonic())"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]) - t0)
    return times


def measure_imports(modules: tuple[str, ...], env: dict) -> dict[str, float]:
    """Split import time with -X importtime: numpy, scipy.linalg, then the package."""
    code = "import numpy\nimport scipy.linalg\n" + "".join(f"import {m}\n" for m in modules)
    runs = []
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=env,
                             check=True, capture_output=True, text=True).stderr
        parts = {"numpy": 0.0, "scipy_linalg": 0.0, "adrcpid": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.startswith("  ") or not cumulative.strip().isdigit():
                continue  # nested import, or the header
            top = name.strip().split(".")[0]
            key = "scipy_linalg" if top == "scipy" else top
            if key in parts:
                parts[key] += int(cumulative) * 1e-6
        runs.append(parts)
    return {f"import.{k}_s": (statistics.median(r[k] for r in runs), "s") for k in runs[0]}


_REF_A = [[0.1 * ((7 * i + 3 * j) % 11) - 0.5 + (i == j) for j in range(5)] for i in range(5)]


def reference_task(in_process: bool, env: dict) -> float:
    """Seconds for a fixed task that uses none of the code being timed.

    In-process workloads get the same mix of interpreter work and small numpy
    calls as the package (roots, polynomial products, small solves);
    cli_cold gets a fresh python importing numpy and scipy.linalg, the bulk
    of every command.
    """
    import numpy as np

    start = time.perf_counter()
    if not in_process:
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], cwd=ROOT, env=env, check=True,
                       capture_output=True)
        return time.perf_counter() - start
    a, p, acc = np.array(_REF_A), np.arange(1.0, 7.0), 0.0
    for i in range(40):
        acc += float(np.abs(np.roots(p)).sum()) + float(np.linalg.solve(a + i * np.eye(5), p[:5]).sum())
        for c in np.polymul(p, p[::-1]):
            acc += c * 1e-9
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 above it.

    With fewer than 11 samples no percentile has 10 beyond; the slowest
    sample is reported, as percentile 100 with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Tally:
    """Per-operation latencies and the verdicts of every execution in a run."""

    def __init__(self, n_ops: int):
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.executions = 0
        self.failed = 0
        self.wrong = 0
        self.defective: set[int] = set()  # operations that showed a known defect
        self.reference: list[float] = []  # reference_task times, one after each untraced execution
        self.reasons: dict[str, list] = {}  # category -> [count, first detail]

    def medians(self) -> list[float]:
        return [statistics.median(xs) for xs in self.latencies]

    def defect_metrics(self) -> dict[str, tuple[float, str]]:
        """Distinct operations that showed a known defect; fixed by the seed."""
        n = len(self.defective)
        return {"defects.ops": (n, "count"), "defects.ratio": (n / len(self.latencies), "ratio")}

    def run(self, wl, index: int, runner=None) -> float:
        """Time one execution of wl.ops[index], then check it.

        A raising operation is timed and judged like any other; it never
        stops the run.
        """
        op = wl.ops[index]
        start = time.perf_counter()
        res = exc = None
        try:
            res = (runner or wl.run)(op)
        except Exception as e:  # noqa: BLE001 -- judged by wl.check like any other failure
            exc = e
        latency = time.perf_counter() - start
        verdict = wl.check(op, res, exc)
        self.latencies[index].append(latency)
        self.executions += 1
        self.failed += verdict.failed
        self.wrong += verdict.wrong
        if verdict.defect:
            self.defective.add(index)
        for category, detail in verdict.reasons:
            self.reasons.setdefault(category, [0, detail])[0] += 1
        return latency


def run_untraced(wl, seconds: float, tally: Tally, env: dict) -> int:
    """Whole passes over wl.ops until the time is up; returns the pass count.

    The reference task runs after every execution, so it samples the host's
    speed as often, and over the same spells, as the operations do.
    """
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i in range(len(wl.ops)):
            tally.run(wl, i)
            tally.reference.append(reference_task(wl.in_process, env))
        passes += 1
    return passes


def run_traced(wl, seconds: float, tally: Tally, work: Path, spans_path: Path) -> tuple[dict, dict]:
    """Each pass untraced, then again traced; per-layer metrics per pass."""
    from tracing import Tracer, layer_metrics, merge

    tracer = Tracer()
    plain_s = traced_s = 0.0
    passes = op_id = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain_s += sum(tally.run(wl, i) for i in range(len(wl.ops)))
        if wl.in_process:
            tracer.install()
        try:
            for i in range(len(wl.ops)):
                op_id += 1
                if wl.in_process:
                    runner = functools.partial(tracer.operation, op_id, wl.run)
                else:
                    runner = functools.partial(wl.run_traced, op_id=op_id, spans_dir=work)
                traced_s += tally.run(wl, i, runner)
        finally:
            tracer.uninstall()
        passes += 1
    if wl.in_process:
        tracer.dump(spans_path)
        merged = merge([tracer.export()])
    else:
        exports = []
        with open(spans_path, "w") as fh:
            for i in range(1, op_id + 1):
                fh.write((work / f"op{i}.jsonl").read_text())
                exports.append(json.loads((work / f"op{i}.json").read_text()))
        merged = merge(exports)
    metrics = layer_metrics(merged, passes)
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / passes, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
    shares = {name: round(merged["self_s"].get(name, 0.0) / traced_s, 4) for name in merged["self_s"]}
    meta = {"passes": passes, "ops_per_pass": len(wl.ops), "untraced_s_per_pass": plain_s / passes,
            "traced_s_per_pass": traced_s / passes, "self_time_share": shares, "spans": str(spans_path)}
    return metrics, meta


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = child_env()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), **versions()}
    try:
        wl = WORKLOADS[name](ROOT, work, env, seed)
        tally = Tally(len(wl.ops))
        if trace:
            metrics = measure_imports(wl.modules, env)
        else:
            setup = measure_setup(wl.modules, env)
        if wl.in_process:
            Tally(1).run(wl, 0)  # warm-up: lazy set-up finishes before timing
        if trace:
            layers, trace_meta = run_traced(wl, seconds, tally, work, OUT / f"{name}-seed{seed}.spans.jsonl")
            metrics.update(layers)
            metrics.update(tally.defect_metrics())
            meta.update(trace_meta)
        else:
            passes = run_untraced(wl, seconds, tally, env)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kb
            typical = tally.medians()
            tail_s, pct, beyond = tail(typical)
            reference_s = statistics.median(tally.reference)
            scale = REFERENCE_S[wl.in_process] / reference_s  # host-speed adjustment, see the docstring
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(typical) / sum(typical), "1/s"),
                "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
                "op_tail_ms": (tail_s * 1e3, "ms"),
                "ops_per_s_adj": (len(typical) / sum(typical) / scale, "1/s"),
                "op_p50_ms_adj": (statistics.median(typical) * 1e3 * scale, "ms"),
                "op_tail_ms_adj": (tail_s * 1e3 * scale, "ms"),
                "reference_ms": (reference_s * 1e3, "ms"),
                "fail_ratio": (tally.failed / tally.executions, "ratio"),
                "peak_rss_mb": (rss_kb / 1024.0, "MB"),
                **tally.defect_metrics(),
            }
            meta.update(setup_samples_s=setup, distinct_ops=len(typical), passes=passes,
                        tail_percentile=pct, tail_ops_beyond=beyond)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"meta": meta, "metrics": metrics, "attempted": tally.executions, "failed": tally.failed,
            "wrong": tally.wrong, "reasons": tally.reasons}


def report(result: dict, declared: list[str]) -> dict:
    """Print the human report; return the result object of the JSON line."""
    meta = result["meta"]
    print(f"# workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}")
    print("# " + json.dumps({k: v for k, v in meta.items() if k not in ("workload", "seed", "trace")}))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}  wrong = {result['wrong']}")
    for category, (count, detail) in sorted(result["reasons"].items(), key=lambda kv: -kv[1][0]):
        print(f"#   {count:6d} x {category}  (first: {detail})")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items() if k in declared}
    return {"correct": result["wrong"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (SRC / "adrcpid" / "__init__.py").is_file():
        print(f"error: no adrcpid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result, declared_metrics(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
