"""Names looked up by string must exist.  The benchmark's trace list looks
each library function up by name, so a renamed or deleted function would
only show up when a traced benchmark run fails; the package's __all__ is
what `from sl4witness import *` resolves."""

import importlib
import importlib.util
from pathlib import Path

import sl4witness

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


def test_package_exports_resolve():
    assert [n for n in sl4witness.__all__ if not hasattr(sl4witness, n)] == []
    assert len(set(sl4witness.__all__)) == len(sl4witness.__all__)
