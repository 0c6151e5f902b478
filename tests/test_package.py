import importlib
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from conftest import fresh_python

import adrcpid

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", adrcpid.__all__)
def test_public_name_is_the_object_of_its_defining_module(name):
    obj = getattr(adrcpid, name)
    assert obj.__module__.startswith("adrcpid.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_lists_every_public_name_before_any_is_loaded():
    code = "import adrcpid; print(set(adrcpid.__all__) <= set(dir(adrcpid)), len(adrcpid.__all__))"
    done = fresh_python("-c", code)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", ["True", str(len(adrcpid.__all__))])


# names the package once exported, removed with the second paths they served
REMOVED_NAMES = (
    "tf_add",
    "tf_multiply",
    "poles",
    "build_pif_controller",
    "build_pidf_controller",
    "AsymptoteReport",
    "AlgebraicLoopError",
)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'freq_response'"):
        adrcpid.freq_response
    assert not hasattr(adrcpid, "no_such_name")
    for name in REMOVED_NAMES:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(adrcpid, name)
    assert len(adrcpid.__all__) == 34


# module -> the names that the benchmark under perfbench/ reaches on it
BENCHMARK_NAMES = {
    "adrc": ("tune_first_order", "tune_second_order", "build_adrc", "extract_cr_cy"),
    "pid_equiv": ("equivalent_params", "build_equivalent_controller"),
    "analysis": ("PlantModel", "gang_of_seven", "closed_loop", "step_response"),
    "lti": ("step_response", "ss_to_tf", "tf_minreal"),
    "verify": ("step_response", "run_verification"),
    "svg": ("line_chart",),
    "cli": ("main", "ExperimentConfig", "FIGURES", "write_figure", "_write_csv"),
}


@pytest.mark.parametrize("module", BENCHMARK_NAMES)
def test_names_the_benchmark_reaches_resolve(module):
    mod = importlib.import_module(f"adrcpid.{module}")
    for name in BENCHMARK_NAMES[module]:
        assert hasattr(mod, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from adrcpid import *", namespace)
    assert {name: namespace[name] for name in adrcpid.__all__} == {
        name: getattr(adrcpid, name) for name in adrcpid.__all__
    }


def test_import_loads_no_submodule():
    code = "import sys, adrcpid; print(*sorted(m for m in sys.modules if m.startswith('adrcpid.')))"
    done = fresh_python("-c", code)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", [])


def test_design_layer_loads_no_numpy_and_no_other_module():
    code = "import sys, adrcpid.design; print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('adrcpid.')))"
    done = fresh_python("-c", code)
    assert (done.returncode, done.stderr, done.stdout.split()) == (0, "", ["adrcpid.design"])


@pytest.mark.parametrize(
    "module, names",
    [
        ("adrc", ("AdrcDesign", "tune_first_order", "tune_second_order")),
        ("pid_equiv", ("PidParams", "equivalent_params", "pif_from_adrc", "pidf_from_adrc")),
    ],
)
def test_design_names_are_still_importable_from_their_old_modules(module, names):
    from adrcpid import design

    old = importlib.import_module(f"adrcpid.{module}")
    for name in names:
        assert getattr(old, name) is getattr(design, name)


def test_readme_quick_start_runs_as_written():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert float(out.getvalue()) == pytest.approx(1.0, abs=1e-6)
