"""CLI and wire-format tests.

Exit code contract: 0 success, 1 a certificate failed verification or
construction, 2 malformed input or usage error.
"""

import json
import subprocess
import sys
import time

import pytest

from sl4witness import arith, cli, params, spectrum, witness
from sl4witness.cli import DocumentError


def run_main(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def cert_a():
    return witness.construct(params.derive(1, 3, 2), (2, 2))


@pytest.fixture(scope="module")
def cert_d_adjusted():
    return witness.construct(params.derive(-1, 3, 3), (2, 1, 3))


def test_document_round_trip(cert_a, cert_d_adjusted):
    for cert in (cert_a, cert_d_adjusted):
        doc = cli.certificate_to_document(cert)
        back = cli.certificate_from_document(doc)
        assert back == cert


def test_round_trip_through_text(cert_d_adjusted):
    text = cli.canonical_json(cli.certificate_to_document(cert_d_adjusted))
    assert cli.certificate_from_document(json.loads(text)) == cert_d_adjusted


def test_canonical_json_shape(cert_a):
    text = cli.canonical_json(cli.certificate_to_document(cert_a))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["params"]["q"] == 9
    # large integers ride as decimal strings so readers never lose precision
    assert isinstance(doc["theta_order"], str)
    assert isinstance(doc["claimed_order"], str)
    assert text == cli.canonical_json(doc)  # stable under re-encoding
    assert list(doc) == sorted(doc)


def doc_of(cert):
    return json.loads(cli.canonical_json(cli.certificate_to_document(cert)))


def test_parse_rejects_unknown_field(cert_a):
    doc = doc_of(cert_a)
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_missing_field(cert_a):
    doc = doc_of(cert_a)
    del doc["claimed_order"]
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_bad_schema_version(cert_a):
    doc = doc_of(cert_a)
    doc["schema_version"] = 2
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_verify_rejects_bool_schema_version(tmp_path, capsys, cert_a):
    # True == 1 in Python, so the version must be read as a plain integer
    doc = doc_of(cert_a)
    doc["schema_version"] = True
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run_main("verify", str(path)) == 2
    assert "schema_version" in capsys.readouterr().err


def test_parse_rejects_inconsistent_q(cert_a):
    doc = doc_of(cert_a)
    doc["params"]["q"] = 27
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_wrong_exponent_count(cert_a):
    doc = doc_of(cert_a)
    doc["exponents"] = doc["exponents"][:3]
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_plain_int_where_string_expected(cert_a):
    doc = doc_of(cert_a)
    doc["theta_order"] = 41
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_non_decimal_string(cert_a):
    doc = doc_of(cert_a)
    doc["theta_order"] = "0x29"
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_trailing_newline(tmp_path, capsys, cert_a,
                                        cert_d_adjusted):
    # a regex "$" also matches before a final newline; the whole string
    # must be digits
    path = tmp_path / "cert.json"
    docs = [doc_of(cert_a), doc_of(cert_a), doc_of(cert_d_adjusted)]
    docs[0]["theta_order"] += "\n"
    docs[1]["exponents"][0] += "\n"
    docs[2]["case_d"]["a"] += "\n"
    for doc in docs:
        with pytest.raises(DocumentError, match="decimal string"):
            cli.certificate_from_document(doc)
        path.write_text(json.dumps(doc))
        assert run_main("verify", str(path)) == 2
        assert "decimal string" in capsys.readouterr().err


def test_parse_bounds_decimal_strings(tmp_path, capsys, cert_a, cert_d_adjusted):
    # past 4300 digits int() itself raises a bare ValueError, and any string
    # longer than SIZE_LIMIT's 39 digits is refused before int() runs
    path = tmp_path / "cert.json"
    for digits in (5000, 60):
        docs = [doc_of(cert_a), doc_of(cert_a), doc_of(cert_d_adjusted)]
        docs[0]["theta_order"] = docs[1]["claimed_order"] = "9" * digits
        docs[2]["case_d"]["a"] = "9" * digits
        for doc in docs:
            with pytest.raises(DocumentError, match="digits"):
                cli.certificate_from_document(doc)
            path.write_text(json.dumps(doc))
            assert run_main("verify", str(path)) == 2
            assert "digits" in capsys.readouterr().err
    # SIZE_LIMIT itself still parses and fails verification instead
    doc = doc_of(cert_a)
    doc["claimed_order"] = str(arith.SIZE_LIMIT)
    path.write_text(json.dumps(doc))
    assert run_main("verify", str(path)) == 1
    assert "V4 FAIL" in capsys.readouterr().out


def test_parse_rejects_bool_as_int(cert_a):
    doc = doc_of(cert_a)
    doc["params"]["m"] = True
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_parse_rejects_bad_adjustment_kind(cert_d_adjusted):
    doc = doc_of(cert_d_adjusted)
    doc["case_d"]["adjustments"][0]["kind"] = "rotate"
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)


def test_construct_then_verify_ok(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_main("construct", "--epsilon", "+", "--p", "3", "--m", "2",
                    "--profile", "2,2", "--out", str(out)) == 0
    assert run_main("verify", str(out)) == 0
    printed = capsys.readouterr().out
    assert "certificate OK" in printed
    assert "V7 ok" in printed


def test_verify_tampered_exits_1(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "2",
             "--profile", "2,2", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["claimed_order"] = str(int(doc["claimed_order"]) + 1)
    out.write_text(cli.canonical_json(doc))
    assert run_main("verify", str(out)) == 1
    printed = capsys.readouterr().out
    assert "V4 FAIL" in printed
    assert "certificate REJECTED" in printed


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main("verify", str(bad)) == 2
    bad.write_text(json.dumps({"schema_version": 1}))
    assert run_main("verify", str(bad)) == 2
    assert run_main("verify", str(tmp_path / "missing.json")) == 2
    capsys.readouterr()


def test_construct_rejects_non_prime(capsys):
    assert run_main("construct", "--epsilon", "+", "--p", "4", "--m", "1",
                    "--profile", "1") == 2
    assert run_main("construct", "--epsilon", "+", "--p", "3", "--m", "2",
                    "--profile", "1") == 2  # profile length mismatch
    capsys.readouterr()


def test_verify_with_computed_spectrum(tmp_path, capsys):
    out = tmp_path / "cert.json"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
             "--profile", "2", "--out", str(out))
    assert run_main("verify", "--spectrum", "compute", str(out)) == 0
    capsys.readouterr()


def test_verify_with_spectrum_dump(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    dump = tmp_path / "psl.txt"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
             "--profile", "2", "--out", str(cert))
    assert run_main("spectrum", "--epsilon", "+", "--q", "3",
                    "--group", "PSL", "--out", str(dump)) == 0
    assert run_main("verify", "--spectrum", str(dump), str(cert)) == 0
    # a dump for the wrong group or field must be refused outright
    wrong = tmp_path / "wrong.txt"
    assert run_main("spectrum", "--epsilon", "-", "--q", "3",
                    "--group", "PSL", "--out", str(wrong)) == 0
    assert run_main("verify", "--spectrum", str(wrong), str(cert)) == 2
    capsys.readouterr()


def test_spectrum_stdout_parses(capsys):
    assert run_main("spectrum", "--epsilon", "-", "--q", "3") == 0
    text = capsys.readouterr().out
    pr, group, orders = spectrum.parse_dump(text)
    assert (pr.epsilon, pr.q, group) == (-1, 3, "PSL")
    assert orders == spectrum.omega(pr, "PSL")


def test_spectrum_rejects_non_prime_power(capsys):
    assert run_main("spectrum", "--epsilon", "+", "--q", "4") == 2
    assert run_main("spectrum", "--epsilon", "+", "--q", "1") == 2
    capsys.readouterr()


# a 126-bit semiprime, far past Q_CAP and slow to factorize
HUGE_Q = "42535295865117425710771050546041187593"


def test_oversized_inputs_exit_2_promptly(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
             "--profile", "2", "--out", str(cert))
    dump = tmp_path / "huge.txt"
    dump.write_text(f"# epsilon=+ q={HUGE_Q} group=PSL\n1\n")
    start = time.perf_counter()
    assert run_main("spectrum", "--epsilon", "+", "--q", HUGE_Q) == 2
    assert run_main("verify", "--spectrum", str(dump), str(cert)) == 2
    assert run_main("construct", "--epsilon", "+", "--p", "3",
                    "--m", "1000000000000", "--profile", "1") == 2
    assert run_main("ppd", "--a", "3", "--n", "1000000000000",
                    "--epsilon", "+") == 2
    assert time.perf_counter() - start < 2.0
    assert "exceeds supported bound" in capsys.readouterr().err


def test_spectrum_at_largest_prime_field(capsys):
    start = time.perf_counter()
    for eps in ("+", "-"):
        assert run_main("spectrum", "--epsilon", eps, "--q", "65521") == 0
        pr, group, orders = spectrum.parse_dump(capsys.readouterr().out)
        assert (pr.q, group, orders[0]) == (65521, "PSL", 1)
    assert time.perf_counter() - start < 2.0


def test_sweep_exit_codes(capsys):
    assert run_main("sweep", "--p-max", "3", "--m-max", "1", "--quiet") == 0
    text = capsys.readouterr().out
    assert "checked 8 certificates" in text
    assert run_main("sweep", "--p-max", "2", "--m-max", "1") == 2
    capsys.readouterr()


def test_ppd_output(capsys):
    assert run_main("ppd", "--a", "3", "--n", "4", "--epsilon", "+") == 0
    assert capsys.readouterr().out.strip() == "5"
    assert run_main("ppd", "--a", "7", "--n", "2", "--epsilon", "+") == 0
    assert capsys.readouterr().out.strip() == "none"
    assert run_main("ppd", "--a", "1", "--n", "4", "--epsilon", "+") == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sl4witness", "ppd", "--a", "3", "--n", "4",
         "--epsilon", "+"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"
