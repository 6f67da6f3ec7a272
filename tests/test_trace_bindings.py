"""The benchmark's layer tracing wraps module attributes by name; each must exist."""

import importlib
from pathlib import Path


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    targets = importlib.import_module("tracing")._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {name})"
