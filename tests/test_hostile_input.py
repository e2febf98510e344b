"""Hostile-input property tests.

One certificate-document field or one CLI argument at a time is replaced
by a value of the wrong type, size or shape.  Parsing and verifying a
document must end in DocumentError, MalformedCertificate or a
verification report, and every command run through main() must end in
exit code 0, 1 or 2, each within TIME_BOUND_S.
"""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from sl4witness import cli, params, verifier, witness
from sl4witness.cli import DocumentError
from sl4witness.verifier import MalformedCertificate, VerificationReport

TIME_BOUND_S = 2.0

# One certificate for each case, and a case-D one with adjustments.
BASES = [(1, 3, 2, (0, 0)), (1, 3, 2, (0, 1)), (1, 3, 2, (1, 2)),
         (-1, 3, 3, (1, 2, 1)), (-1, 5, 2, (1, 2))]

HOSTILE_VALUES = [2**70, -(2**70), -1, 0, True, None, 1.5, "x", "", [], {},
                  "1\n", "9" * 60, str(2**70), "-" + str(2**70)]

HOSTILE_ARGS = [str(2**70), "-" + str(2**70), "0", "-1", "x", "", "1\n",
                "9" * 60, "3,3,3,3,3"]

# A base command line per subcommand; CERT stands for a certificate file.
COMMANDS = [
    ["construct", "--epsilon", "+", "--p", "3", "--m", "2",
     "--profile", "2,2"],
    ["verify", "--spectrum", "compute", "CERT"],
    ["sweep", "--p-max", "3", "--m-max", "1", "--quiet"],
    ["spectrum", "--epsilon", "-", "--q", "9", "--group", "PSL"],
    ["ppd", "--a", "3", "--n", "4", "--epsilon", "+"],
]


# ppd inputs with a^5 within SIZE_LIMIT whose stripped parts are products
# of two primes of 50 and 54 bits, and of 48 and 55 bits: past the
# factorizer's rho budget, so they must be refused rather than split
HARD_PPD_BASES = ("50331773", "50331705")


def _document(eps, p, m, profile):
    cert = witness.construct(params.derive(eps, p, m), profile)
    return json.loads(cli.canonical_json(cli.certificate_to_document(cert)))


DOCS = [_document(*base) for base in BASES]


def _paths(obj, prefix=()):
    """Every key and list-index path into obj, parents before children."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = [list(_paths(doc)) for doc in DOCS]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _main_exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses a usage error this way
        return exc.code


@pytest.fixture(scope="module")
def cert_file(tmp_path_factory):
    """A file each document example overwrites."""
    return tmp_path_factory.mktemp("hostile") / "cert.json"


@pytest.fixture(scope="module")
def good_cert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("good") / "cert.json"
    path.write_text(json.dumps(DOCS[0]))
    return path


def test_documents_cover_every_case():
    cases = {doc["case"] for doc in DOCS}
    assert cases == set(params.ALL_CASES)
    assert any(doc.get("case_d", {}).get("adjustments") for doc in DOCS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hostile_document_field(cert_file, data):
    which = data.draw(st.integers(0, len(DOCS) - 1), label="document")
    path = data.draw(st.sampled_from(PATHS[which]), label="path")
    value = data.draw(st.sampled_from(HOSTILE_VALUES), label="value")
    doc = _replaced(DOCS[which], path, value)

    start = time.perf_counter()
    try:
        outcome = verifier.verify(cli.certificate_from_document(doc))
    except (DocumentError, MalformedCertificate) as exc:
        outcome = exc
    assert time.perf_counter() - start < TIME_BOUND_S
    assert isinstance(outcome, (VerificationReport, DocumentError,
                                MalformedCertificate))
    expected = (2 if isinstance(outcome, Exception)
                else 0 if outcome.ok else 1)

    cert_file.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert _main_exit_code(["verify", str(cert_file)]) == expected
    assert time.perf_counter() - start < TIME_BOUND_S


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hostile_cli_argument(good_cert_file, data):
    argv = list(data.draw(st.sampled_from(COMMANDS), label="command"))
    argv = [str(good_cert_file) if arg == "CERT" else arg for arg in argv]
    # the arguments after the subcommand that carry a value
    slots = [i for i, arg in enumerate(argv)
             if i > 0 and not arg.startswith("--")]
    slot = data.draw(st.sampled_from(slots), label="slot")
    argv[slot] = data.draw(st.sampled_from(HOSTILE_ARGS), label="value")

    start = time.perf_counter()
    assert _main_exit_code(argv) in (0, 1, 2)
    assert time.perf_counter() - start < TIME_BOUND_S


def test_hard_ppd_exits_2_promptly(capsys):
    for a in HARD_PPD_BASES:
        start = time.perf_counter()
        assert _main_exit_code(["ppd", "--a", a, "--n", "5",
                                "--epsilon", "+"]) == 2
        assert time.perf_counter() - start < TIME_BOUND_S
        assert "rho" in capsys.readouterr().err


def test_mid_range_ppd_exits_0_promptly(capsys):
    # 61729^3 - 1 strips to 14221 * 89317, which the mid-range table splits
    start = time.perf_counter()
    assert _main_exit_code(["ppd", "--a", "61729", "--n", "3",
                            "--epsilon", "+"]) == 0
    assert time.perf_counter() - start < TIME_BOUND_S
    assert capsys.readouterr().out.strip() == "14221"


def test_mid_range_table_builds_promptly_in_a_fresh_process():
    # the largest composite the mid-range table splits needs all of it,
    # and a fresh process builds it from nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import time; from sl4witness import arith; "
            "start = time.perf_counter(); "
            "f = arith.factorize(131063 * 131071); "
            "print(time.perf_counter() - start); print(*f)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    elapsed, factors = proc.stdout.splitlines()
    assert float(elapsed) < TIME_BOUND_S
    assert factors == ("PrimePower(prime=131063, exponent=1) "
                       "PrimePower(prime=131071, exponent=1)")
