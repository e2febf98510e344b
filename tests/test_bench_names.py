"""The benchmark's trace list must name attributes the library still has:
tracing looks each one up by name, so a renamed or deleted function would
only show up when a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attrs in tracing.TRACED.items():
        mod = importlib.import_module(f"sl4witness.{mod_name}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []
