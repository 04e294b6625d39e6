"""Tests for the package metadata in pyproject.toml and for the package's reach."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flucert

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted((ROOT / "src" / "flucert").glob("*.py"))

#: public names that no certificate path reaches yet, each with the item that wires it
NOT_YET_REACHED = {
    "InequalityViolationError": "ROADMAP items 1 and 4 (the driver raises it)",
}


def test_every_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), (name, target)


def test_package_binds_only_modules():
    public = {k: v for k, v in vars(flucert).items() if not k.startswith("_")}
    assert all(isinstance(v, types.ModuleType) for v in public.values()), public


def test_no_module_imports_quadrature():
    """Every affinity is a closed form: importing all of flucert leaves
    scipy.integrate unloaded."""
    stems = [path.stem for path in SOURCES if path.stem != "__init__"]
    modules = ["flucert", *(f"flucert.{stem}" for stem in stems)]
    code = (
        f"import importlib, sys\nfor m in {modules!r}: importlib.import_module(m)\n"
        "assert 'scipy.integrate' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def names_in(node):
    """The names read under ``node``: bare names, names imported with ``from``,
    and ``module.attr`` for each attribute read off a bare name.  Neither a
    dataclass field nor an attribute of an object counts as a use of a
    function with the same name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            names.add(f"{sub.value.id}.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def test_every_public_name_is_reached():
    """Each public function and class is used elsewhere in the package or by
    the benchmark, or waits on a ROADMAP item; no module imports a name it
    never uses."""
    definitions, uses, unused_imports = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        is_import = [isinstance(n, (ast.Import, ast.ImportFrom)) for n in tree.body]
        imports = [n for n, flag in zip(tree.body, is_import) if flag]
        body = [n for n, flag in zip(tree.body, is_import) if not flag]
        in_module = set().union(*map(names_in, body))
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).partition(".")[0]
                if bound not in in_module:
                    unused_imports.append(f"{path.stem}: {bound}")
        for node in body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            owner = (path.stem, node.name) if defined else None
            if defined and not node.name.startswith("_"):
                definitions.append(owner)
            uses.append((owner, names_in(node)))
    benchmark = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        benchmark |= names_in(ast.parse(path.read_text(), filename=str(path)))

    def reached(module, name):
        forms = {name, f"{module}.{name}"}
        elsewhere = (names for owner, names in uses if owner != (module, name))
        return any(forms & names for names in elsewhere) or bool(forms & benchmark)

    unreached = [
        f"{module}.{name}"
        for module, name in definitions
        if not reached(module, name) and name not in NOT_YET_REACHED
    ]
    assert unreached == []
    assert unused_imports == []
    waiting = [(mod, name) for mod, name in definitions if name in NOT_YET_REACHED]
    assert sorted(name for _module, name in waiting) == sorted(NOT_YET_REACHED)
    # a name that a certificate path now reaches leaves the list
    assert [name for module, name in waiting if reached(module, name)] == []
