import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import jdl


def test_package_import_loads_no_numpy():
    # an entry point must be able to pin BLAS threads before numpy loads
    code = "import sys, jdl; sys.exit('numpy' in sys.modules)"
    src = str(Path(jdl.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert done.returncode == 0


def test_every_source_parses_at_the_python_floor():
    # pyproject.toml says requires-python >= 3.10; newer syntax would fail
    # only on a 3.10 interpreter, so check for it under any version
    root = Path(jdl.__file__).parents[2]
    files = [path for part in ("src", "tests", "perfbench") for path in (root / part).rglob("*.py")]
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_every_console_script_imports():
    # a declared script whose module is missing installs a command that dies
    # with ModuleNotFoundError
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(jdl.__file__).parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
