"""The benchmark's span tracer (perfbench/spans.py) swaps coopfuse callables
by name. Every name it binds must exist, and uninstalling must put every
original back; a renamed or deleted name would otherwise break
``perfbench/run.py --trace 1`` with no failing test."""

import importlib
import sys
from pathlib import Path

from coopfuse import ops, pipeline, serialize, sweeps, sync, tensor, training, world  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def namespaces() -> dict:
    """A copy of the attribute table of every coopfuse module and of every class it defines."""
    tables = {}
    for name, mod in list(sys.modules.items()):
        if name == "coopfuse" or name.startswith("coopfuse."):
            tables[name] = dict(vars(mod))
            for attr, val in vars(mod).items():
                if isinstance(val, type) and val.__module__ == name:
                    tables[f"{name}.{attr}"] = dict(vars(val))
    return tables


def changed(before: dict, after: dict) -> list[str]:
    return sorted(f"{table}.{attr}" for table, attrs in before.items()
                  for attr, val in attrs.items() if after.get(table, {}).get(attr) is not val)


def test_tracer_binds_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = (ops.linear_recurrence, sweeps.latency_sweep, sweeps.evaluate,
                 sync.Integrator.__call__, tensor.Tape.record)
    before = namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = (ops.linear_recurrence, sweeps.latency_sweep, sweeps.evaluate,
                   sync.Integrator.__call__, tensor.Tape.record)
        assert all(new is not old for new, old in zip(patched, originals))
        assert changed(before, namespaces())
    finally:
        tracer.uninstall()
    assert changed(before, namespaces()) == []
