"""The public surface: every name a module exports resolves, and the
benchmark finds every name it patches (``benchmarks/tracing.py``) or calls
(``benchmarks/runner.py``) where it looks it up.  A moved or renamed name
then fails here instead of in a benchmark run.  The face-by-face reference
``rhs`` is tested against stays outside the solver and chemolab's private
helpers."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chemolab

MODULES = sorted(m.name for m in pkgutil.iter_modules(chemolab.__path__))
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
REFERENCE = Path(__file__).resolve().parent / "reference_fv.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"chemolab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_benchmark_finds_every_name_it_patches_and_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    runner = importlib.import_module("runner")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # getattr on every patched name
    finally:
        tracer.restore()
    probe = runner.continuity_probe()  # calls the solver and diagnostics layers
    assert len(probe) == 8
    assert all(value > 0.0 for value in probe.values())


def test_reference_operator_imports_nothing_from_the_solver():
    # a reference that shares the solver's code passes with the same fault;
    # nor may it borrow chemolab's private helpers, such as its face slices
    imported = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert imported  # the walk saw the imports
    assert [n for n in imported if n.split(".")[:2] == ["chemolab", "solver"]] == []
    private = [n for n in imported
               if n.split(".")[0] == "chemolab" and any(p.startswith("_") for p in n.split("."))]
    assert private == []
