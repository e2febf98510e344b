"""What each CLI command loads, and the package names resolved on first use.

The package import loads what construct and verify run; the command line,
the spectrum oracle and the field layer load when a command or a caller
first asks for them, and numpy only when sampling runs.  Each command runs
in a fresh interpreter, which lists the modules it loaded as it exits."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sl4witness
from sl4witness import arith, verifier

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sl4witness.__file__)))
SUBMODULES = ("arith", "params", "witness", "verifier", "spectrum", "ffield",
              "cli")
LAZY = {"sl4witness.spectrum", "sl4witness.ffield"}


def _run_fresh(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


# Runs the CLI as `python -m sl4witness` does, then reports every module
# the process loaded, however it was imported.
_COMMAND = textwrap.dedent("""
    import atexit, runpy, sys
    atexit.register(lambda: print("MODULES", *sorted(sys.modules),
                                  file=sys.stderr))
    runpy.run_module("sl4witness", run_name="__main__", alter_sys=True)""")


def _command_imports(*argv, cwd):
    """Run the CLI on argv in a fresh interpreter; return (exit code,
    stdout, the set of modules loaded when it exits)."""
    proc = _run_fresh("-c", _COMMAND, *argv, cwd=cwd)
    listed = [line for line in proc.stderr.splitlines()
              if line.startswith("MODULES ")]
    assert len(listed) == 1, proc.stderr
    return proc.returncode, proc.stdout, set(listed[0].split()[1:])


@pytest.fixture(scope="module")
def cert_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy")
    code, _, _ = _command_imports(
        "construct", "--epsilon", "+", "--p", "3", "--m", "2",
        "--profile", "2,2", "--out", "cert.json", cwd=path)
    assert code == 0
    return path


def test_construct_loads_neither_spectrum_nor_ffield(tmp_path):
    code, _, imported = _command_imports(
        "construct", "--epsilon", "-", "--p", "5", "--m", "1",
        "--profile", "1", "--out", "c.json", cwd=tmp_path)
    assert code == 0
    assert "sl4witness.witness" in imported
    assert not LAZY & imported
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [
    ("verify", "cert.json"),
    ("sweep", "--p-max", "3", "--m-max", "1"),
    ("ppd", "--a", "3", "--n", "4", "--epsilon", "+"),
])
def test_command_loads_neither_spectrum_nor_ffield(cert_dir, argv):
    code, _, imported = _command_imports(*argv, cwd=cert_dir)
    assert code == 0
    assert "sl4witness.cli" in imported
    assert not LAZY & imported
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [
    ("spectrum", "--epsilon", "+", "--q", "3"),
    ("verify", "--spectrum", "compute", "cert.json"),
])
def test_spectrum_commands_load_spectrum_only(cert_dir, argv):
    code, out, imported = _command_imports(*argv, cwd=cert_dir)
    assert code == 0
    assert "sl4witness.spectrum" in imported
    assert "sl4witness.ffield" not in imported
    assert "numpy" not in imported
    if argv[0] == "verify":
        assert "V8 spectrum: compute" in out


def test_exports_are_the_submodules_own_objects():
    owners = {}
    for name in sl4witness.__all__:
        value = getattr(sl4witness, name)
        owners[name] = [
            mod for mod in SUBMODULES
            if getattr(importlib.import_module(f"sl4witness.{mod}"), name,
                       owners) is value]
    assert [name for name, mods in owners.items() if not mods] == []
    assert sl4witness.realize is sl4witness.ffield.realize
    assert sl4witness.omega is sl4witness.spectrum.omega
    assert sl4witness.member is arith.member
    assert verifier.in_spectrum is arith.member


def test_lazy_names_resolve_after_a_bare_import():
    proc = _run_fresh("-c", textwrap.dedent("""
        import sys
        import sl4witness
        lazy = {"sl4witness.spectrum", "sl4witness.ffield", "sl4witness.cli"}
        assert not lazy & set(sys.modules)
        names = dir(sl4witness)
        assert {"ffield", "spectrum", "cli", "realize", "omega",
                "parse_dump", "Field", "canonical_json"} <= set(names)
        assert names == sorted(names)
        assert not lazy & set(sys.modules)
        assert sl4witness.member is sl4witness.arith.member
        assert "sl4witness.spectrum" not in sys.modules
        assert sl4witness.spectrum is sys.modules["sl4witness.spectrum"]
        assert "sl4witness.ffield" not in sys.modules
        assert sl4witness.realize is sys.modules["sl4witness.ffield"].realize
        assert sl4witness.ffield.Field is sl4witness.Field
        assert "numpy" not in sys.modules
        print("ok")"""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_star_import_binds_every_name():
    proc = _run_fresh("-c", textwrap.dedent("""
        import sys
        import sl4witness
        namespace = {}
        exec("from sl4witness import *", namespace)
        missing = [n for n in sl4witness.__all__
                   if namespace.get(n) is not getattr(sl4witness, n)]
        assert missing == [], missing
        assert {"sl4witness.spectrum", "sl4witness.ffield"} <= set(sys.modules)
        assert "numpy" not in sys.modules
        print(len(sl4witness.__all__))"""))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(sl4witness.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "numpy", "_lazy"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(sl4witness, name)
    assert not hasattr(sl4witness, name)


def test_construct_and_verify_leave_cli_unloaded():
    proc = _run_fresh("-c", textwrap.dedent("""
        import sys
        import sl4witness
        cert = sl4witness.construct(sl4witness.derive(1, 3, 2), (2, 1))
        assert sl4witness.verify(cert).ok
        assert not {"sl4witness.cli", "json"} & set(sys.modules)
        write = sl4witness.canonical_json
        assert {"sl4witness.cli", "json"} <= set(sys.modules)
        assert write is sys.modules["sl4witness.cli"].canonical_json
        doc = sl4witness.certificate_to_document(cert)
        assert sl4witness.certificate_from_document(doc) == cert
        print("ok")"""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _top_level_definitions(path):
    """The names a module's source binds at top level."""
    defined = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
    return defined


def test_export_table_matches_the_submodules():
    # a name in the table is resolved only on its first access, so a typo
    # or a name its module only imports would otherwise pass unnoticed
    package = Path(sl4witness.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    assert set(sl4witness._EXPORTS) == modules - {"__init__", "__main__"}
    undefined = [f"{mod}.{name}"
                 for mod, names in sl4witness._EXPORTS.items()
                 for name in set(names) - _top_level_definitions(
                     package / f"{mod}.py")]
    assert undefined == []
    assert sorted(sl4witness.__all__) == sl4witness.__all__
    assert len(sl4witness.__all__) == sum(map(len,
                                              sl4witness._EXPORTS.values()))
