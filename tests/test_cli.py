"""CLI and wire-format tests.

Exit code contract: 0 success, 1 a certificate failed verification or
construction, 2 malformed input or usage error.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import cli_reference
from sl4witness import arith, cli, params, spectrum, verifier, witness
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


def reference_json(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# strings with control characters, non-ASCII and lone surrogates
json_strings = st.text(st.characters(blacklist_categories=()), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | json_strings | st.integers()
    | st.integers(2**128, 2**300) | st.integers(-(2**300), -(2**128))
    | st.floats() | st.just(-0.0),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(json_strings, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_canonical_json_matches_json_dumps(value):
    assert cli.canonical_json(value) == reference_json(value)


class Obj(dict):
    pass


def _nested(depth, leaf):
    """leaf inside depth alternating dicts and lists."""
    for level in range(depth):
        leaf = {"k": leaf, "a": [1]} if level % 2 else [leaf, "x"]
    return leaf


def test_canonical_json_edges():
    for value in ({}, [], (), {"a": {}, "b": [[], {}, ()]}, [[[]]],
                  {"\x00\u00e9\ud800": "\n\u2028"}, -0.0, float("nan"),
                  Obj(), Obj({"b": Obj({"c": 1}), "a": [Obj()]}),
                  ("x", (1, ()), [{}]), True, False, None, 1.5,
                  {"t": True, "n": None, "f": -2.5, "i": 10**40},
                  [False, None, 0.1, {"e": [], "d": {}}],
                  # deeper than the line breaks _dump builds in advance
                  _nested(20, {}), _nested(21, [[True]]),
                  [[[[[[[[[[1]]]]]]]]]]):
        assert cli.canonical_json(value) == reference_json(value)
    for value in ({1: "a"}, {"a": 1, 2: 3}, [{"x": {None: 1}}],
                  {True: 1}, {(1, 2): 0}, Obj({1.5: []}),
                  _nested(20, {3: "deep"})):
        with pytest.raises(TypeError):
            cli.canonical_json(value)


def test_canonical_json_matches_json_dumps_on_grid(grid_inputs,
                                                  wide_inputs):
    for pr, profile in grid_inputs + wide_inputs:
        doc = cli.certificate_to_document(witness.construct(pr, profile))
        assert cli.canonical_json(doc) == reference_json(doc)


def doc_of(cert):
    return json.loads(cli.canonical_json(cli.certificate_to_document(cert)))


def test_parse_rejects_unknown_field(cert_a):
    doc = doc_of(cert_a)
    doc["extra"] = 1
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)
    # the right number of fields with one renamed is still unknown
    doc = doc_of(cert_a)
    doc["params"]["qq"] = doc["params"].pop("q")
    with pytest.raises(DocumentError,
                       match=r"params has unknown fields: \['qq'\]"):
        cli.certificate_from_document(doc)
    doc = doc_of(cert_a)
    doc["selection"] = doc.pop("selections")
    with pytest.raises(DocumentError, match="unknown fields"):
        cli.certificate_from_document(doc)


def test_parse_rejects_missing_field(cert_a, cert_d_adjusted):
    doc = doc_of(cert_a)
    del doc["claimed_order"]
    with pytest.raises(DocumentError):
        cli.certificate_from_document(doc)
    doc = doc_of(cert_d_adjusted)
    del doc["case_d"]["adjustments"][0]["factor"]
    with pytest.raises(DocumentError,
                       match=r"adjustment is missing fields: \['factor'\]"):
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


def test_parse_decimal_string_edges(cert_a):
    # a 39-digit string and a signed one parse; 40 digits, an int, a bool
    # and a str subclass are refused
    class Text(str):
        pass

    for value, expected in (("9" * 39, 10**39 - 1),
                            ("-" + "9" * 39, 1 - 10**39)):
        doc = doc_of(cert_a)
        doc["theta_order"] = value
        assert cli.certificate_from_document(doc).theta_order == expected
    for value, message in (("9" * 40, "more than 39 digits"),
                           ("-" + "9" * 40, "more than 39 digits"),
                           (41, "decimal string"), (True, "decimal string"),
                           (Text("41"), "decimal string")):
        doc = doc_of(cert_a)
        doc["theta_order"] = value
        with pytest.raises(DocumentError, match=message):
            cli.certificate_from_document(doc)


class _Obj(dict):
    pass


class _Text(str):
    pass


def _subclassed(doc, path):
    """doc with the value at path (keys and indices) made a _Obj or a
    _Text that equals it."""
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = (_Obj if type(node[last]) is dict else _Text)(node[last])
    return doc


# (path to the value made a subclass, the reader's message)
_SUBCLASSED = [
    ((), "document must be a JSON object"),
    (("params",), "params must be a JSON object"),
    (("selections", 0), "selection must be a JSON object"),
    (("case_d",), "case_d must be a JSON object"),
    (("case_d", "adjustments", 0), "adjustment must be a JSON object"),
    (("theta_order",), "theta_order must be a decimal string"),
    (("exponents", 2), "exponent must be a decimal string"),
    (("case_d", "A"), "case_d.A must be a decimal string"),
    (("case",), "case must be a string"),
    (("case_d", "adjustments", 0, "kind"), "unknown adjustment kind 'flip'"),
]


@pytest.mark.parametrize("path, message", _SUBCLASSED, ids=[
    ".".join(map(str, path)) or "document" for path, _ in _SUBCLASSED])
def test_parse_refuses_dict_and_str_subclasses(cert_d_adjusted, path,
                                               message):
    # the reader takes each value only in exactly the type the writer
    # writes, as verify does: a dict-subclass record and a str-subclass
    # decimal once read fine, and a str-subclass case passed the reader
    # to earn verify's "unknown case tag 'D_QcongEps'"
    assert cert_d_adjusted.case_d.adjustments[0].kind == "flip"
    if path:
        doc = _subclassed(doc_of(cert_d_adjusted), path)
    else:
        doc = _Obj(doc_of(cert_d_adjusted))
    for read in (cli.certificate_from_document,
                 cli_reference.certificate_from_document):
        with pytest.raises(DocumentError) as info:
            read(doc)
        assert str(info.value) == message


def test_construct_then_verify_ok(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_main("construct", "--epsilon", "+", "--p", "3", "--m", "2",
                    "--profile", "2,2", "--out", str(out)) == 0
    assert run_main("verify", str(out)) == 0
    printed = capsys.readouterr().out
    assert "certificate OK" in printed
    assert "V7 ok" in printed
    assert "V8 spectrum: skipped\n" in printed


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
    assert "V8 spectrum: skipped\n" in printed
    assert "certificate REJECTED" in printed


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main("verify", str(bad)) == 2
    bad.write_text(json.dumps({"schema_version": 1}))
    assert run_main("verify", str(bad)) == 2
    assert run_main("verify", str(tmp_path / "missing.json")) == 2
    capsys.readouterr()
    # json.load recurses once per level and raises RecursionError
    bad.write_text("[" * 100_000 + "]" * 100_000)
    start = time.perf_counter()
    assert run_main("verify", str(bad)) == 2
    assert time.perf_counter() - start < 2.0
    assert "nested too deeply" in capsys.readouterr().err


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
    lines = capsys.readouterr().out.splitlines()
    # the source line follows the check lines, before the verdict
    assert lines[lines.index("V8 ok") + 1] == "V8 spectrum: compute"
    assert lines[-1] == "certificate OK"


def test_verify_with_spectrum_dump(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    dump = tmp_path / "psl.txt"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
             "--profile", "2", "--out", str(cert))
    assert run_main("spectrum", "--epsilon", "+", "--q", "3",
                    "--group", "PSL", "--out", str(dump)) == 0
    assert run_main("verify", "--spectrum", str(dump), str(cert)) == 0
    assert f"V8 spectrum: {dump}\n" in capsys.readouterr().out
    # a dump for the wrong group or field must be refused outright
    wrong = tmp_path / "wrong.txt"
    assert run_main("spectrum", "--epsilon", "-", "--q", "3",
                    "--group", "PSL", "--out", str(wrong)) == 0
    assert run_main("verify", "--spectrum", str(wrong), str(cert)) == 2
    capsys.readouterr()


def test_verify_refuses_non_canonical_dump(tmp_path, capsys):
    # a dump listing 0 would make every order a member
    cert = tmp_path / "cert.json"
    dump = tmp_path / "psl.txt"
    run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
             "--profile", "2", "--out", str(cert))
    head = "# epsilon=+ q=3 group=PSL\n"
    for text in (head + "-4\n0\n1_0\n", head + "0\n1\n2\n",
                 "# epsilon=+ q=\u0663 group=PSL\n1\n",
                 head + "1\n" + "9" * 40 + "\n"):
        dump.write_text(text, encoding="utf-8")
        assert run_main("verify", "--spectrum", str(dump), str(cert)) == 2
        assert "error:" in capsys.readouterr().err


def test_spectrum_stdout_parses(capsys):
    assert run_main("spectrum", "--epsilon", "-", "--q", "3") == 0
    text = capsys.readouterr().out
    pr, group, orders = spectrum.parse_dump(text)
    assert (pr.epsilon, pr.q, group) == (-1, 3, "PSL")
    assert orders == spectrum.omega(pr, "PSL")


def test_spectrum_rejects_non_prime_power(capsys):
    assert run_main("spectrum", "--epsilon", "+", "--q", "4") == 2
    capsys.readouterr()
    # q below 3 is refused by name, before factorize sees it
    for q in ("0", "1", "-9"):
        assert run_main("spectrum", "--epsilon", "+", f"--q={q}") == 2
        err = capsys.readouterr().err
        assert f"got {q}" in err
        assert "factorize" not in err


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


def test_sweep_refuses_oversized_grid_promptly(capsys):
    # past Q_CAP, past m's bit bound, and 41^3 past Q_CAP: each refused
    # before the prime scan or the first certificate
    for p_max, m_max in (("100000000000", "1"), ("3", "100"), ("41", "3")):
        start = time.perf_counter()
        assert run_main("sweep", "--p-max", p_max, "--m-max", m_max,
                        "--quiet") == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert "exceeds supported bound" in captured.err
        assert captured.out == ""
    # 7^5 fits the cap, so this grid still runs
    assert run_main("sweep", "--p-max", "10", "--m-max", "5", "--quiet") == 0
    assert "checked 8184 certificates" in capsys.readouterr().out


def test_sweep_p_max_refusal_names_p_max_only(capsys):
    assert run_main("sweep", "--p-max", "100000000000", "--m-max", "1",
                    "--quiet") == 2
    err = capsys.readouterr().err
    assert err == ("error: p-max 100000000000 exceeds supported bound "
                   "65536\n")
    assert "m-max" not in err


def test_spectrum_at_largest_prime_field(capsys):
    start = time.perf_counter()
    for eps in ("+", "-"):
        assert run_main("spectrum", "--epsilon", eps, "--q", "65521") == 0
        pr, group, orders = spectrum.parse_dump(capsys.readouterr().out)
        assert (pr.q, group, orders[0]) == (65521, "PSL", 1)
    assert time.perf_counter() - start < 2.0


def _verify_both_ways(capsys, cert, dump):
    """(stdout, exit code) of verify against the computed spectrum and
    against the dump; the dump's run names its path on the source line."""
    runs = []
    for source in ("compute", str(dump)):
        code = run_main("verify", "--spectrum", source, str(cert))
        out = capsys.readouterr().out
        assert f"V8 spectrum: {source}\n" in out
        runs.append((out.replace(f"V8 spectrum: {source}\n", ""), code))
    return runs


@pytest.mark.parametrize("p,m", [(3, 10), (65521, 1)])
def test_verify_maxima_matches_dump(tmp_path, capsys, p, m):
    # --spectrum compute checks against the maxima of the projective
    # spectrum, a dump against all of its orders: every line but the one
    # naming the source, and the exit code, must agree, on each case's
    # certificate and on a tampered copy of it
    cert, dump = tmp_path / "cert.json", tmp_path / "psl.txt"
    for sign in ("+", "-"):
        pr = params.derive(1 if sign == "+" else -1, p, m)
        cases = {}
        for profile in itertools.islice(
                itertools.product((0, 1, 2, 3), repeat=m), 64):
            cases.setdefault(params.classify_profile(profile, pr), profile)
        want = {params.CASE_A, params.CASE_B}
        if m > 1:
            want.add(params.CASE_D if params.target_orders(pr, params.CASE_D)
                     else params.CASE_C)
        assert set(cases) == want, (sign, cases)
        assert run_main("spectrum", "--epsilon", sign, "--q", str(pr.q),
                        "--group", "PSL", "--out", str(dump)) == 0
        for profile in cases.values():
            assert run_main("construct", "--epsilon", sign, "--p", str(p),
                            "--m", str(m), "--profile",
                            ",".join(map(str, profile)),
                            "--out", str(cert)) == 0
            capsys.readouterr()
            (out, code), (dump_out, dump_code) = \
                _verify_both_ways(capsys, cert, dump)
            assert (code, out.splitlines()[-1]) == (0, "certificate OK")
            assert (out, code) == (dump_out, dump_code), (sign, profile)
            doc = json.loads(cert.read_text())
            doc["claimed_order"] = str(int(doc["claimed_order"]) * p)
            cert.write_text(cli.canonical_json(doc))
            (out, code), (dump_out, dump_code) = \
                _verify_both_ways(capsys, cert, dump)
            assert (code, out.splitlines()[-1]) == (1, "certificate REJECTED")
            assert (out, code) == (dump_out, dump_code), (sign, profile)


def test_sweep_exit_codes(capsys):
    assert run_main("sweep", "--p-max", "3", "--m-max", "1", "--quiet") == 0
    text = capsys.readouterr().out
    assert "checked 8 certificates" in text
    assert run_main("sweep", "--p-max", "2", "--m-max", "1") == 2
    capsys.readouterr()


def _rejecting_verify(cert, **kwargs):
    return verifier.VerificationReport(False, (("V1", "forced"),), ())


def test_construct_exits_1_when_verify_rejects(tmp_path, capsys,
                                               monkeypatch):
    # construct and verify agree on every honest input
    monkeypatch.setattr(verifier, "verify", _rejecting_verify)
    out = tmp_path / "cert.json"
    assert run_main("construct", "--epsilon", "+", "--p", "3", "--m", "2",
                    "--profile", "2,2", "--out", str(out)) == 1
    assert capsys.readouterr().err == "V1 FAIL: forced\n"
    assert json.loads(out.read_text())["params"]["q"] == 9


def test_construction_failure_exits_1(capsys, monkeypatch):
    # construct raises ConstructionError on no honest input
    def failing(pr, profile):
        raise witness.ConstructionError("forced")

    monkeypatch.setattr(witness, "construct", failing)
    assert run_main("construct", "--epsilon", "+", "--p", "3", "--m", "1",
                    "--profile", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "construction failed: forced\n"


def test_sweep_reports_failed_certificates(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "verify", _rejecting_verify)
    tail = ("checked 8 certificates: A_R4=4 B_R3=4 C_QcongMinusEps=0 "
            "D_QcongEps=0\n8 certificates FAILED verification\n")
    assert run_main("sweep", "--p-max", "3", "--m-max", "1") == 1
    fails = [f"FAIL eps={eps} p=3 m=1 profile={k}: V1 forced\n"
             for eps in "+-" for k in range(4)]
    assert capsys.readouterr().out == "".join(fails) + tail
    assert run_main("sweep", "--p-max", "3", "--m-max", "1", "--quiet") == 1
    assert capsys.readouterr().out == tail


def test_verify_prints_lenient_warnings(tmp_path, capsys, cert_a):
    # the factor-0 and factor-1 selections, positions (1, 3), now pick two
    # equal values; the sum and orbit checks fail too
    path = tmp_path / "cert.json"
    path.write_text(cli.canonical_json(cli.certificate_to_document(
        cert_a._replace(exponents=(1, 9, 1, 32)))))
    warnings = ("V6 warning: slot 0 selects coinciding characteristic "
                "values\nV6 warning: slot 1 selects coinciding "
                "characteristic values\n")
    assert run_main("verify", "--lenient-values", str(path)) == 1
    printed = capsys.readouterr().out
    assert "V6 ok\n" in printed and warnings in printed
    assert run_main("verify", str(path)) == 1
    printed = capsys.readouterr().out
    assert "V6 FAIL\n" in printed and "warning" not in printed


def test_ppd_output(capsys):
    assert run_main("ppd", "--a", "3", "--n", "4", "--epsilon", "+") == 0
    assert capsys.readouterr().out.strip() == "5"
    assert run_main("ppd", "--a", "7", "--n", "2", "--epsilon", "+") == 0
    assert capsys.readouterr().out.strip() == "none"
    assert run_main("ppd", "--a", "1", "--n", "4", "--epsilon", "+") == 2
    capsys.readouterr()


def test_module_entry_point_subprocess():
    # the child finds this sl4witness first, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sl4witness", "ppd", "--a", "3", "--n", "4",
         "--epsilon", "+"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"
