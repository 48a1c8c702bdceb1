"""Package layering and public surface.

Proves:
- No package module imports a _-prefixed name from another package
  module: private helpers stay private to the module that defines them.
- Every name a package module imports from another package module is
  listed in that module's __all__: the package surface is what the
  modules share.
- The package exports exactly the names its modules list in __all__, plus
  __version__, each name once, and every exported name exists.
- Every name a package module lists in __all__ is loaded somewhere in
  the package outside its own def or class body, except the one name
  that perfbench's tracer still holds in place: what only the tests use
  belongs in tests/oracles.py.
- tests/oracles.py loads as perfbench loads it, from its path as a
  module that sys.modules does not hold.
- perfbench's tracer still finds every name it binds: installed on cli
  and metrics, it counts 8·8·N pairs for a ``--grid 8,8`` simulate and
  8·N for its 8-sample line cut (from field_grid's cfg, nx and ny and
  line_cut's cfg and samples), reads a solved plan's status, and puts
  back every function it replaced.
- cli.py takes names with ``from ... import`` only from package modules;
  standard-library and third-party modules come in whole. perfbench's
  tracer wraps every function in cli's namespace that another module
  defined, so a name taken from outside the package would get a span.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import ulabeam
import ulabeam.cli
from ulabeam import array_geometry, bessel, curving, field, metrics

SRC = Path(ulabeam.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = (array_geometry, bessel, curving, field, metrics)
# metrics.amplitude_at_user has no caller in the package. It stays while
# perfbench's tracer patches metrics.field_at, its one callee, by name.
UNLOADED_EXPORTS = ["amplitude_at_user"]


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


def _loaded_names(path: Path) -> set[str]:
    """Names the module loads, each outside every def or class of that name."""
    loaded = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
            loaded.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), frozenset())
    return loaded


def _unloaded(paths: list[Path], names: list[str]) -> list[str]:
    loaded = set().union(*map(_loaded_names, paths))
    return [name for name in names if name not in loaded]


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
    listed = [name for module in MODULES for name in module.__all__]
    assert len(ulabeam.__all__) == len(set(ulabeam.__all__))
    assert sorted(ulabeam.__all__) == sorted([*listed, "__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ulabeam, name) is getattr(module, name)


def test_every_exported_name_is_used_in_the_package():
    exported = [name for module in MODULES for name in module.__all__]
    assert _unloaded(sorted(SRC.glob("*.py")), exported) == UNLOADED_EXPORTS


def test_unloaded_check_ignores_a_names_own_body(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "__all__ = ['walk', 'Node', 'leaf', 'depth']\n"
        "def walk(node):\n"
        "    return [walk(child) for child in node.children]\n"
        "class Node:\n"
        "    def copy(self):\n"
        "        return Node()\n"
        "def leaf() -> Node:\n"
        "    return depth\n"
        "depth = 0\n",
        encoding="utf-8",
    )
    assert _unloaded([sample], ["walk", "Node", "leaf", "depth"]) == ["walk", "leaf"]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_binds_the_package_names(tmp_path):
    tracing = _load(ROOT / "perfbench" / "tracing.py", "standalone_tracing")
    cli = ulabeam.cli
    before = {module: dict(vars(module)) for module in (cli, metrics)}
    tracer = tracing.Tracer()
    tracer.install(cli, metrics)
    try:
        scenarios = ROOT / "scenarios"
        simulate = ["simulate", "--scenario", str(scenarios / "smoke_two_element.yaml"), "--out", str(tmp_path / "s")]
        assert tracer.call_main(cli.main, [*simulate, "--grid", "8,8", "--line-cut", "0.4,8"]) == 0
        optimize = ["optimize", "--scenario", str(scenarios / "curving_centered_cuboid.yaml"), "--out", str(tmp_path / "o")]
        assert tracer.call_main(cli.main, optimize) == 0
    finally:
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    assert [span["pairs"] for span in spans["field.grid"]] == [8 * 8 * 2]
    assert [span["pairs"] for span in spans["field.line_cut"]] == [8 * 2]
    assert [span["status"] for span in spans["curving.plan"]] == ["solved"]
    for module, names in before.items():
        assert all(getattr(module, name) is value for name, value in names.items())


def test_oracles_load_outside_sys_modules():
    module = _load(ROOT / "tests" / "oracles.py", "standalone_oracles")
    assert callable(module.solution_geometry_slacks)
