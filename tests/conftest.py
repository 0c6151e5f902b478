import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# Property tests replay the same examples on every run and keep no example
# database, so a failure reproduces and a pass does not depend on past runs.
settings.register_profile("adrcpid", derandomize=True, deadline=None, database=None)
settings.load_profile("adrcpid")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# the aim-3 tuning range: log-uniform T_s, g and |b0|, either sign of b0
TUNINGS = st.tuples(
    st.sampled_from((1, 2)),
    log_uniform(1e-3, 1e3),
    log_uniform(1.0, 1e3),
    st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-3, 1e3)),
)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with warnings as errors and this checkout's src first on its path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    criterion = getattr(item.function, "_criterion", None)
    if criterion:
        status = "PASS" if report.passed else "FAIL"
        print(f"ACCEPTANCE {criterion}: {status}")
