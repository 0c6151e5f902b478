import ast
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
PACKAGE = Path(adrcpid.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    "LoopMargins",
    "loop_margins",
    "ImproperTransferFunctionError",
    "tf_to_ss",
    "observer_matrix",
    "pif_from_adrc",
    "pidf_from_adrc",
)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'freq_response'"):
        adrcpid.freq_response
    assert not hasattr(adrcpid, "no_such_name")
    for name in REMOVED_NAMES:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(adrcpid, name)
    assert len(adrcpid.__all__) == 27


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
        ("pid_equiv", ("PidParams", "equivalent_params")),
    ],
)
def test_design_names_are_still_importable_from_their_old_modules(module, names):
    from adrcpid import design

    old = importlib.import_module(f"adrcpid.{module}")
    for name in names:
        assert getattr(old, name) is getattr(design, name)


# the re-exports that test_design_names_are_still_importable_from_their_old_modules pins
REEXPORTS = {
    "adrc": {"tune_first_order", "tune_second_order"},
    "pid_equiv": {"equivalent_params"},
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - REEXPORTS.get(path.stem, set()) == set()


def _named(paths):
    """Every ast.Name id and ast.Attribute attr in the files at paths."""
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def _read_members(paths):
    """Every attribute read (ast.Attribute attr) in the files at paths, and every
    string that is an identifier, as getattr reads TUNE_REPORT's keys."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                read.add(node.value)
    return read


def _public_members(paths):
    """(class, member) of each public method, property and annotated field of an exported class."""
    members = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and node.name in adrcpid.__all__):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    members.add((node.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    members.add((node.name, item.target.id))
    return {(cls, name) for cls, name in members if not name.startswith("_")}


def test_every_private_helper_has_a_caller():
    """Every private module-level function and class, and every private method,
    is named somewhere in the package: a helper does not outlive its last caller."""
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    named = _named(sorted(PACKAGE.glob("*.py")))
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert private, "no private helper found: the scan is broken"
    assert private - named == set()


# public names that neither the package's modules nor the benchmark name, and why each stays
UNNAMED_PUBLIC_NAMES = (
    ("reference_channel_gap", "waits on a run record that reports the reference-channel gap"),
    ("tf_minreal", "the benchmark's tracer names it only as a string, and must drop it first"),
)


def test_every_public_name_has_a_user():
    """Every public name is named in a module of the package other than __init__.py,
    or by the benchmark, and so is every public method, property and field of an
    exported class, by an attribute read or an identifier string: neither outlives
    its last user."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    users = modules + sorted(PERFBENCH.glob("*.py"))
    assert set(adrcpid.__all__) - _named(users) == {name for name, _ in UNNAMED_PUBLIC_NAMES}
    members = _public_members(modules)
    assert ("PlantModel", "canonical_tf") in members and ("SweepResult", "cases") in members
    read = _read_members(users)
    assert {(cls, name) for cls, name in members if name not in read} == set()


def test_analysis_names_no_numpy():
    """The closed loop hands its rows to lti, and the sweeps' time scaling and verify's
    checks are plain floats."""
    for module in ("analysis", "verify"):
        imported, named = set(), set()
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Name):
                named.add(node.id)
        assert not any(name.partition(".")[0] == "numpy" for name in imported), module
        assert "np" not in named, module


def test_readme_quick_start_runs_as_written():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert float(out.getvalue()) == pytest.approx(1.0, abs=1e-6)
