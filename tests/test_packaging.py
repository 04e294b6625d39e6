"""Tests for the package metadata in pyproject.toml."""

import importlib
import types
from pathlib import Path

import pytest

import flucert

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
