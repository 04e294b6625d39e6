"""Tests for the package metadata in pyproject.toml and the export list."""

import importlib
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


def test_every_export_resolves():
    assert len(flucert.__all__) == len(set(flucert.__all__))
    for name in flucert.__all__:
        assert hasattr(flucert, name), name
    namespace = {}
    exec("from flucert import *", namespace)
    assert set(flucert.__all__) <= set(namespace)
