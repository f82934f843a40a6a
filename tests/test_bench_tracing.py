"""The benchmark's layer tracer names only callables that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    # Tracer.install looks each name up the same way and raises on a miss,
    # which would stop a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.TRACED.items():
        home = importlib.import_module(f"nablainv.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                found = attr in vars(getattr(home, cls_name, object))
            else:
                found = callable(getattr(home, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert not missing, missing
