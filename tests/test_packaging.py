"""Tests for the package metadata in pyproject.toml and for the package's reach."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flucert

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
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


def test_ci_installs_every_test_import():
    """The ``pip install`` line of each CI job names every third-party module
    that a file under ``tests/`` or ``perfbench/`` imports, so that no test
    passes locally only because a package (``mpmath``, say) is installed here.
    Each such module is installed under its own name."""
    files = sorted((ROOT / "tests").rglob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    local = {"flucert", *(path.stem for path in files)}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "scipy", "pytest"} <= third_party
    lines = [line for line in WORKFLOW.read_text().splitlines() if "pip install" in line]
    assert len(lines) == 2, lines  # tier1 and tier1-floor
    for line in lines:
        words = line.partition("pip install")[2].split()
        installed = {re.split(r"[=<>!~\[]", word.strip("\"'"))[0] for word in words}
        assert third_party <= installed, (line, third_party - installed)


def test_package_binds_only_modules():
    public = {k: v for k, v in vars(flucert).items() if not k.startswith("_")}
    assert all(isinstance(v, types.ModuleType) for v in public.values()), public


#: SciPy subpackages that importing flucert must leave unloaded
DEFERRED = (
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.sparse.csgraph",
    "scipy.spatial",
)

#: an SK replicate and the exact Euclidean scaling couplings, with their TVs
EXACT_MODELS = """
from flucert import coupling, densities, euclidean, rng, spin_glass
gauss = densities.standard_density("std-gaussian")
dis = spin_glass.SKDisorder(6, densities.sample_iid(gauss, 15, rng.seed_stream(1)))
scaled = spin_glass.scale_disorder(dis, 1.0)
energies = [spin_glass.enumerate_energies(d) for d in (dis, scaled)]
spin_glass.jensen_gap_check(dis, 1.0, 1.0, *energies)
rho = densities.scaled_affinity(gauss, -1 / 6).rho
coupling.product_tv_bound(coupling.PerturbationPlan("scale", [-1 / 6] * 15, [rho] * 15))
points = densities.sample_iid(gauss, 16, rng.seed_stream(1, 1)).reshape(8, 2)
for kind in ("tsp-exact", "matching-exact"):
    euclidean.scaling_coupling(euclidean.PointSet(2, points), 1.0, 1, kind, gauss)
"""

#: one call of each function that imports a SciPy kernel, keyed by that kernel
FIRST_CALLS = {
    "scipy.optimize": "from flucert.assignment import CostMatrix, hungarian\n"
    "hungarian(CostMatrix(2, [[0.0, 1.0], [1.0, 0.0]]))",
    "scipy.sparse.csgraph": "from flucert.fpp import FppGrid, passage_time\n"
    "passage_time(FppGrid(2, 2, [[1.0, 1.0]], [[1.0], [1.0]], (0, 0), (1, 1)))",
    "scipy.spatial": "from flucert.euclidean import PointSet, nn_sum\n"
    "nn_sum(PointSet(1, [[0.0], [1.0]]))",
}


def test_no_module_imports_quadrature():
    """Every affinity is a closed form, and each SciPy solver kernel is
    imported by the one function that calls it.  Importing all of flucert,
    or running an SK replicate and the exact Euclidean scaling couplings,
    loads none of ``DEFERRED`` beyond what ``import numpy, scipy.special``
    loads by itself; ``hungarian``, ``passage_time`` and ``nn_sum`` each load
    their kernel.  Every case runs in a fresh interpreter of its own."""
    stems = [path.stem for path in SOURCES if path.stem != "__init__"]
    modules = ["flucert", *(f"flucert.{stem}" for stem in stems)]
    imports = f"import importlib\nfor m in {modules!r}: importlib.import_module(m)\n"
    report = f"\nimport sys\nprint([m for m in {DEFERRED!r} if m in sys.modules])"
    cases = {
        "baseline": "import numpy, scipy.special",
        "import": imports,
        "exact models": imports + EXACT_MODELS,
        **{kernel: imports + call for kernel, call in FIRST_CALLS.items()},
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", code + report], env=env, stdout=subprocess.PIPE,
            text=True,
        )
        for name, code in cases.items()
    }
    loaded = {}
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, name
        loaded[name] = set(ast.literal_eval(out.strip()))
    baseline = loaded.pop("baseline")
    assert loaded["import"] - baseline == set()
    assert loaded["exact models"] - baseline == set()
    for kernel in FIRST_CALLS:
        assert kernel in loaded[kernel], kernel


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


def unused_local_imports(stem, tree):
    """``stem.function: name`` for each name that an import inside a function
    binds and that function, or a function nested in it, never reads.  An
    import in a nested function belongs to the nested one."""
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            sub.id
            for sub in ast.walk(func)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        # the function's own statements, not those of a scope nested in it
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).partition(".")[0]
                    if bound not in read:
                        unused.append(f"{stem}.{func.name}: {bound}")
            elif not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                stack.extend(ast.iter_child_nodes(node))
    return unused


def test_every_public_name_is_reached():
    """Each public function and class is used elsewhere in the package or by
    the benchmark, or waits on a ROADMAP item; no module or function imports
    a name it never uses."""
    definitions, uses, unused_imports = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        unused_imports += unused_local_imports(path.stem, tree)
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
