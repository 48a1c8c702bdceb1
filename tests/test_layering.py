"""Package layering and public surface.

Proves:
- No package module imports a _-prefixed name from another package
  module: private helpers stay private to the module that defines them.
- Every name a package module imports from another package module is
  listed in that module's __all__: the package surface is what the
  modules share.
- The package exports exactly the names its modules list in __all__, plus
  __version__, each name once, and every exported name exists.
- cli.py takes names with ``from ... import`` only from package modules;
  standard-library and third-party modules come in whole. perfbench's
  tracer wraps every function in cli's namespace that another module
  defined, so a name taken from outside the package would get a span.
"""

import ast
import importlib
from pathlib import Path

import ulabeam
from ulabeam import array_geometry, bessel, curving, field, metrics

SRC = Path(ulabeam.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "ulabeam"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}")
    return found


def _unlisted_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level > 0:
            module = node.module
        elif node.module.startswith("ulabeam."):
            module = node.module.removeprefix("ulabeam.")
        else:
            continue
        listed = importlib.import_module(f"ulabeam.{module}").__all__
        for alias in node.names:
            if alias.name != "*" and alias.name not in listed:
                found.append(f"{path.name}:{node.lineno} imports {alias.name}, not in {module}.__all__")
    return found


def _foreign_from_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level > 0:
            continue
        if node.module.split(".")[0] not in ("ulabeam", "__future__"):
            found.append(f"{path.name}:{node.lineno} imports from {node.module}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "field.py", "metrics.py"}
    assert [hit for path in modules for hit in _private_imports(path)] == []


def test_private_import_check_sees_relative_and_absolute_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .field import _blocked_runs, field_grid\n"
        "from ulabeam.cli import _flag_pair\n"
        "from os.path import _get_sep\n",
        encoding="utf-8",
    )
    assert _private_imports(sample) == [
        "sample.py:1 imports _blocked_runs from .field",
        "sample.py:2 imports _flag_pair from ulabeam.cli",
    ]


def test_modules_import_only_listed_names_from_each_other():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _unlisted_imports(path)] == []


def test_unlisted_import_check_sees_relative_and_absolute_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import field\n"
        "from .field import *\n"
        "from .field import field_grid, ulp_helper\n"
        "from ulabeam.metrics import ErrorBox, np\n"
        "from .cli import load_scenario, main\n"
        "from os.path import join\n",
        encoding="utf-8",
    )
    assert _unlisted_imports(sample) == [
        "sample.py:3 imports ulp_helper, not in field.__all__",
        "sample.py:4 imports np, not in metrics.__all__",
        "sample.py:5 imports load_scenario, not in cli.__all__",
    ]


def test_cli_takes_names_only_from_package_modules():
    assert _foreign_from_imports(SRC / "cli.py") == []


def test_foreign_import_check_sees_stdlib_and_third_party(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import dataclasses\n"
        "from dataclasses import fields\n"
        "from .field import field_grid\n"
        "from ulabeam.metrics import ErrorBox\n"
        "from numpy.linalg import solve\n",
        encoding="utf-8",
    )
    assert _foreign_from_imports(sample) == [
        "sample.py:3 imports from dataclasses",
        "sample.py:6 imports from numpy.linalg",
    ]


def test_package_exports_exactly_the_module_lists():
    modules = (array_geometry, bessel, curving, field, metrics)
    listed = [name for module in modules for name in module.__all__]
    assert len(ulabeam.__all__) == len(set(ulabeam.__all__))
    assert sorted(ulabeam.__all__) == sorted([*listed, "__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(ulabeam, name) is getattr(module, name)
