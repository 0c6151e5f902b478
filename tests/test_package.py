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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'freq_response'"):
        adrcpid.freq_response
    assert not hasattr(adrcpid, "no_such_name")


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


def test_readme_quick_start_runs_as_written():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert float(out.getvalue()) == pytest.approx(1.0, abs=1e-6)
