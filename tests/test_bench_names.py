"""Names looked up by string must exist.  The benchmark's trace list looks
each library function up by name, so a renamed or deleted function would
only show up when a traced benchmark run fails; the package's __all__ is
what `from sl4witness import *` resolves.  Only __all__ and the package's
own uses may keep a function in the library: code only tests or the
benchmark use belongs under tests/ or bench/."""

import ast
import importlib
import importlib.util
from pathlib import Path

import sl4witness

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SRC = ROOT / "src" / "sl4witness"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_traced_names_resolve():
    missing = []
    for mod_name, attrs in _traced().items():
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


def _units(tree):
    """(name defined or None, node) for every top-level function, class,
    method and other statement; a class's own node is its bases and
    decorators."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, ast.Tuple(node.bases + node.decorator_list)
            for item in node.body:
                yield _defined(item, f"{node.name}."), item
        else:
            yield _defined(node, ""), node


def _defined(node, prefix):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return prefix + node.name
    return None


def _mentions(node):
    """(bare names, attribute names) the node mentions."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)},
            {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_library_defines_nothing_only_tests_use():
    # Uses are matched by bare name, without their module or class, so a
    # name that two definitions share keeps both.  A name the benchmark
    # traces gets no exemption: the library itself must use it.
    units = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        units += [(path.stem, name, _mentions(node))
                  for name, node in _units(tree)]
    unused = []
    for i, (mod, name, _) in enumerate(units):
        if name is None:
            continue
        cls, _, short = name.rpartition(".")
        if short.startswith("__") and short.endswith("__"):
            continue
        # a method is reached as an attribute, a module-level name either way
        used = any(short in attrs or (not cls and short in names)
                   for j, (_, _, (names, attrs)) in enumerate(units) if j != i)
        if not (used or name in sl4witness.__all__):
            unused.append(f"{mod}.{name}")
    assert unused == []


def test_library_modules_use_every_import():
    # __init__ imports names to export them; every other module must read
    # each name it imports, or a constant that moved away stays importable
    # from the module that no longer needs it
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, _ = _mentions(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in names:
                        unused.append(f"{path.stem}.{bound}")
    assert unused == []
