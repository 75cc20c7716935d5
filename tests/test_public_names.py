"""Names that code outside the package relies on still resolve."""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import loopinfo

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    """perfbench/spans.py as a module, registered only for this test (its
    dataclasses look their module up while they are built)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_benchmark_name_resolves(monkeypatch):
    """The benchmark's tracer skips a missing name silently, so a renamed or
    deleted function would only drop a layer metric; fail here instead."""
    traced = _load_spans(monkeypatch).TRACED
    assert traced
    for module, attribute, *_ in traced:
        owner = importlib.import_module(module)
        assert callable(functools.reduce(getattr, attribute.split("."), owner)), attribute


def test_every_exported_name_resolves_once():
    names = loopinfo.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(loopinfo, name), name
