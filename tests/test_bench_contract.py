"""The benchmark's traced pass wraps freemagma functions by name; a name
that no longer resolves would crash it."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"{layer}.{name}"
        for layer, names in child.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"freemagma.{layer}"), name, None))
    ]
    assert missing == []
