"""Spans around calls into the package's layers, recorded from outside it.

``Tracer.install`` replaces each layer function with a wrapper in every
loaded ``adrcpid`` module that holds it, so a name bound by
``from .lti import step_response`` is traced where it is called, not only
where it is defined.  Spans stay in memory with their parent and operation
ids and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# layer name -> (defining module, attribute, counters besides calls/self_s)
LAYERS = {
    "lti.step_response": ("adrcpid.lti", "step_response", ("samples", "finite_ratio", "flops_computed")),
    "lti.ss_to_tf": ("adrcpid.lti", "ss_to_tf", ("errors",)),
    "lti.tf_minreal": ("adrcpid.lti", "tf_minreal", ("errors",)),
    "adrc.extract_cr_cy": ("adrcpid.adrc", "extract_cr_cy", ("errors",)),
    "pid_equiv.equivalent_params": ("adrcpid.pid_equiv", "equivalent_params", ("errors",)),
    "analysis.gang_of_seven": ("adrcpid.analysis", "gang_of_seven", ("errors",)),
    "analysis.closed_loop": ("adrcpid.analysis", "closed_loop", ()),
    "svg.line_chart": ("adrcpid.svg", "line_chart", ("points", "bytes")),
    "cli._write_csv": ("adrcpid.cli", "_write_csv", ("rows", "bytes")),
    "cli.write_figure": ("adrcpid.cli", "write_figure", ()),
    "verify.run_verification": ("adrcpid.verify", "run_verification", ()),
}

COUNT_UNITS = {"samples": "count", "flops_computed": "flop", "points": "count", "rows": "count",
               "bytes": "B", "errors": "count"}


def _count(name: str, counts: dict, args: tuple, result) -> None:
    """Work done by one call, measured at the layer boundary."""
    if name == "lti.step_response":
        m = args[0]
        n, p, k = m.n_states, m.n_outputs, result.t.size
        values = np.stack(list(result.columns.values()))
        counts["samples"] += k
        counts["finite"] += int(np.isfinite(values).sum())
        counts["values"] += values.size
        # recurrence y = C x + d, x = Ad x + bd per sample, from problem size
        counts["flops_computed"] += k * (2 * n * n + n + 2 * p * n + p)
    elif name == "svg.line_chart":
        counts["points"] += sum(len(s.x) for s in args[0])
        counts["bytes"] += len(result.encode())
    elif name == "cli._write_csv":
        columns = args[2]
        counts["rows"] += len(columns[0]) if columns else 0
        counts["bytes"] += Path(args[0]).stat().st_size


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts = {name: dict.fromkeys(("calls", "errors", "samples", "finite", "values",
                                            "flops_computed", "points", "rows", "bytes"), 0)
                       for name in LAYERS}
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the span's parent is the innermost open one."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._op, name, start, end)

    def operation(self, op_id: int, fn, *args, **kwargs):
        """Root span of one benchmark operation; nested spans share op_id."""
        self._op = op_id
        return self.span("op", fn, *args, **kwargs)

    def _wrap(self, name: str, fn):
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts["calls"] += 1
            try:
                result = self.span(name, fn, *args, **kwargs)
            except Exception:
                counts["errors"] += 1
                raise
            _count(name, counts, args, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for name, (module, attr, _) in LAYERS.items():
            if module not in sys.modules:
                continue  # the workload never loads this layer
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "adrcpid":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._originals):
            setattr(mod, key, original)
        self._originals.clear()

    def self_times(self) -> dict[str, float]:
        """Per layer, span time minus the time of its direct child spans."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

    def export(self) -> dict:
        return {"counts": self.counts, "self_s": self.self_times(), "spans": len(self.spans)}


def merge(exports: list[dict]) -> dict:
    """Sum counts and self times of several tracers, e.g. one per child process."""
    counts: dict[str, dict[str, int]] = {name: {} for name in LAYERS}
    self_s: dict[str, float] = {}
    for e in exports:
        for name, c in e["counts"].items():
            for key, value in c.items():
                counts[name][key] = counts[name].get(key, 0) + value
        for name, value in e["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
    return {"counts": counts, "self_s": self_s, "spans": sum(e["spans"] for e in exports)}


def layer_metrics(merged: dict, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics named module.function.quantity."""
    out: dict[str, tuple[float, str]] = {}
    for name, (_, _, extra) in LAYERS.items():
        c = merged["counts"][name]
        out[f"{name}.calls"] = (c["calls"] / passes, "count")
        out[f"{name}.self_s"] = (merged["self_s"].get(name, 0.0) / passes, "s")
        for key in extra:
            if key == "finite_ratio":
                out[f"{name}.{key}"] = (c["finite"] / c["values"] if c["values"] else 1.0, "ratio")
            else:
                out[f"{name}.{key}"] = (c[key] / passes, COUNT_UNITS[key])
    return out
