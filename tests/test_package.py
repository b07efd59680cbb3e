"""Module export lists and the package's import layering."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import adhocsv

MODULES = ["adhocsv"] + [f"adhocsv.{m.name}" for m in pkgutil.iter_modules(adhocsv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_public(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
        assert not attr.startswith("_") or attr.endswith("__"), f"{name}.{attr} is private"


def test_cli_module_runs_without_a_runtime_warning():
    # The package must not import cli, or running it with -m warns that
    # 'adhocsv.cli' is already in sys.modules.
    src = os.path.dirname(os.path.dirname(adhocsv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "adhocsv.cli",
                             "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr


def adhocsv_imports(name: str) -> set[str]:
    """The adhocsv modules that module ``name`` imports anywhere in its source."""
    module = importlib.import_module(f"adhocsv.{name}")
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("adhocsv"):
            found.add(node.module.removeprefix("adhocsv").lstrip(".") or "adhocsv")
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("adhocsv.") for alias in node.names
                      if alias.name.startswith("adhocsv")}
    return found


# The autodiff core and the simulator sit at the bottom, and graphs right
# above the simulator, so the prior can read scenes at run time without an
# import cycle.  Channel selection needs only the autodiff core, and
# aggregation builds its own graphs as plain masks.
@pytest.mark.parametrize("name, allowed", [
    ("diffcore", set()),
    ("scenesim", set()),
    ("graphs", {"scenesim"}),
    ("chansel", {"diffcore"}),
    ("stagg", {"diffcore"}),
], ids=["diffcore", "scenesim", "graphs", "chansel", "stagg"])
def test_import_layering(name, allowed):
    assert adhocsv_imports(name) <= allowed


PACKAGE_FILES = sorted(Path(adhocsv.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[path.stem for path in PACKAGE_FILES])
def test_every_imported_name_is_read(path):
    # A re-export is read through the module's __all__, or marked "# noqa: F401"
    # on the line that imports it.
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(
        "adhocsv" if path.stem == "__init__" else f"adhocsv.{path.stem}")
    assert sorted(imported - read - set(module.__all__)) == []


# Public functions with no caller in the package or the benchmark, each kept on purpose.
UNCALLED_FUNCTIONS = {
    "diffcore.mean_axis",  # perfbench/tests/test_tracing.py pins how its spans nest
    "diffcore.vjp_check",  # the tests' finite-difference gradient checker
}

ROOT = Path(adhocsv.__file__).resolve().parents[2]
CALLER_FILES = sorted(Path(adhocsv.__file__).parent.glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def adhocsv_names_read(path: Path) -> set[str]:
    """The package's functions that the code in ``path`` reads, as "module.name".

    A module reads its own names bare; other files read a module's names
    through ``from adhocsv[.module] import ...`` or as attributes of the
    module itself.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent == Path(adhocsv.__file__).parent else None
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("adhocsv")):
            source = (node.module or "").removeprefix("adhocsv").lstrip(".")
            names = {alias.asname or alias.name: alias.name for alias in node.names}
            if source:
                imported.update({name: f"{source}.{attr}" for name, attr in names.items()})
            else:
                modules.update(names)
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in imported:
            found.add(imported[node.id])
        elif isinstance(node, ast.Name) and own is not None:
            found.add(f"{own}.{node.id}")
    return found


def test_every_public_function_has_a_caller_in_the_package():
    functions = set()
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        functions |= {f"{name.removeprefix('adhocsv.')}.{attr}" for attr in module.__all__
                      if inspect.isfunction(getattr(module, attr))
                      and getattr(module, attr).__module__ == name}
    read = set().union(*(adhocsv_names_read(path) for path in CALLER_FILES))
    assert UNCALLED_FUNCTIONS <= functions
    assert sorted(functions - read - UNCALLED_FUNCTIONS) == []
