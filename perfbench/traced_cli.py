"""Run one adrcpid command with layer tracing, in its own process.

Usage: python perfbench/traced_cli.py OUT_PREFIX OP_ID <adrcpid arguments...>

Writes the spans to OUT_PREFIX.jsonl and the layer counts and self times to
OUT_PREFIX.json, then exits with the command's exit code.  ``src`` must be
on PYTHONPATH, as for ``python -m adrcpid.cli``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from adrcpid import cli
from tracing import Tracer


def main() -> int:
    prefix, op_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    try:
        return tracer.operation(op_id, cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(prefix.with_suffix(".jsonl"))
        prefix.with_suffix(".json").write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
