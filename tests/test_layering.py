"""Package layering and public surface.

Proves:
- No package module imports a _-prefixed name from another package
  module: private helpers stay private to the module that defines them.
- The package exports exactly the names its modules list in __all__, plus
  __version__, each name once, and every exported name exists.
- cli.py takes names with ``from ... import`` only from package modules;
  standard-library and third-party modules come in whole. perfbench's
  tracer wraps every function in cli's namespace that another module
  defined, so a name taken from outside the package would get a span.
"""

import ast
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
