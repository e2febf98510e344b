"""The wire reader and writer against the reference versions they replaced.

tests/cli_reference.py keeps the earlier certificate_from_document and
canonical_json verbatim.  On every grid document, every document of the
recorded wide pool and a seeded set of tampered documents, the live
versions must return an equal certificate or the same text, or raise the
same exception type with the same message.
"""

import copy
import json
import random

import pytest

import cli_reference as ref
from sl4witness import arith, cli, witness

TAMPERS = 6000


class Text(str):
    pass


class Obj(dict):
    pass


def _outcome(fn, value):
    try:
        return ("ok", fn(value))
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return (type(exc), str(exc))


def _assert_same(doc):
    assert (_outcome(cli.certificate_from_document, doc)
            == _outcome(ref.certificate_from_document, doc)), doc
    assert _outcome(cli.canonical_json, doc) == _outcome(ref.canonical_json,
                                                         doc), doc


def _document(pr, profile):
    cert = witness.construct(pr, profile)
    return json.loads(cli.canonical_json(cli.certificate_to_document(cert)))


@pytest.fixture(scope="module")
def wide_documents(wide_inputs):
    return [_document(pr, profile) for pr, profile in wide_inputs]


@pytest.fixture(scope="module")
def grid_documents(grid_inputs):
    return [_document(pr, profile) for pr, profile in grid_inputs]


def test_grid_documents_match_reference(grid_documents):
    for doc in grid_documents:
        _assert_same(doc)


def test_wide_documents_match_reference(wide_documents):
    for doc in wide_documents:
        _assert_same(doc)


# Values a tamper puts in place of a field's value: wrong JSON types,
# bools and floats, strings that are not decimal (other scripts' digits,
# a superscript, hex, a trailing newline, signs), 39- and 40-digit strings,
# and str subclasses.
DIGITS_39 = "9" * 39
DIGITS_40 = "9" * 40
REPLACEMENTS = (
    None, True, False, 0, 1, 2, 3, -1, 41, 10**40, 2.0, 3.0, 0.5,
    "", "-", "+1", "--1", "-0", "00", "0x29", "1\n", " 1", "1_000", "١",
    "²", "１", "41", "-41", "flip", "swap", "+", "A_R4", "D_QcongEps",
    DIGITS_39, "-" + DIGITS_39, DIGITS_40, "-" + DIGITS_40, "0" * 40,
    Text("41"), Text("-7"), Text("٤"), [], [1], ["1"], [True], {}, {"x": 1},
    Obj(), Obj({"factor": 0, "positions": [1]}),
)
KEY_NAMES = ("case_d", "extra", "Params", "q", "p", "factor", "kind",
             "positions", "adjustments", "A", "a", "theta_order", "")


def _slots(value):
    """(container, key) of every field and list entry below value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield value, key
            yield from _slots(item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from _slots(item)


def _wrap(value):
    """value with each dict an Obj and each str a Text."""
    if isinstance(value, dict):
        return Obj({k: _wrap(v) for k, v in value.items()})
    if isinstance(value, list):
        return [_wrap(v) for v in value]
    if isinstance(value, str):
        return Text(value)
    return value


def _tamper(doc, rnd):
    """One to three seeded edits of a deep copy of doc."""
    doc = copy.deepcopy(doc)
    for _ in range(rnd.randint(1, 3)):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = rnd.choice(slots)
        old = container[key]
        action = rnd.randrange(8)
        if isinstance(container, dict) and action == 0:
            del container[key]
        elif isinstance(container, dict) and action == 1:
            container[rnd.choice(KEY_NAMES)] = container.pop(key)
        elif isinstance(container, dict) and action == 2:
            container[rnd.choice(KEY_NAMES + ("zzz",))] = old
        elif action == 3:
            container[key] = _wrap(old)
        elif action == 4 and isinstance(old, str):
            # the same integer as a JSON int, or "0" appended
            container[key] = (int(old) if old.isascii() and old.isdigit()
                              else old + "0")
        elif action == 4 and type(old) is int:
            container[key] = rnd.choice((str(old), float(old), bool(old)))
        elif action == 5 and isinstance(container, list):
            container.append(copy.deepcopy(old))
        else:
            container[key] = copy.deepcopy(rnd.choice(REPLACEMENTS))
    if rnd.randrange(10) == 0:
        doc = _wrap(doc)
    return doc


def test_tampered_documents_match_reference(grid_documents, wide_documents):
    rnd = random.Random(2026)
    case_d = [doc for doc in grid_documents + wide_documents
              if "case_d" in doc]
    adjusted = [doc for doc in case_d if doc["case_d"]["adjustments"]]
    assert case_d and adjusted
    bases = grid_documents + wide_documents
    refused = 0
    for i in range(TAMPERS):
        # one tamper in three starts from a case-D document
        pool = (adjusted if i % 6 == 0 else case_d if i % 3 == 0
                else bases)
        doc = _tamper(rnd.choice(pool), rnd)
        _assert_same(doc)
        refused += _outcome(ref.certificate_from_document, doc)[0] != "ok"
    # most tampers are refused, and some are not
    assert TAMPERS // 2 < refused < TAMPERS


def test_decimal_string_edges_match_reference(grid_documents):
    doc = next(d for d in grid_documents
               if "case_d" in d and d["case_d"]["adjustments"])
    for field in ("theta_order", "claimed_order", "target_order"):
        for value in REPLACEMENTS:
            bad = copy.deepcopy(doc)
            bad[field] = value
            _assert_same(bad)
    for field in ("r", "t", "a", "b", "A", "B"):
        for value in REPLACEMENTS:
            bad = copy.deepcopy(doc)
            bad["case_d"][field] = value
            _assert_same(bad)
    for value in REPLACEMENTS:
        bad = copy.deepcopy(doc)
        bad["exponents"][2] = value
        _assert_same(bad)


# The values that leave the reader's fast paths: a signed or padded
# decimal string, other scripts' digits, one digit too many, and a bool
# where an int belongs.
DECIMAL_FALLBACKS = ("-5", "+5", " 5", "٥", "⁵",
                     "9" * (arith.MAX_DIGITS + 1))
DECIMAL_FIELDS = ("theta_order", "claimed_order", "target_order")


def _records(doc):
    """Every record of doc, the document first."""
    return [doc, doc["params"], *doc["selections"],
            *([doc["case_d"], *doc["case_d"]["adjustments"]]
              if "case_d" in doc else [])]


def _fallback_tampers(doc):
    """Copies of doc that each take one of the reader's fallbacks."""
    def edited(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    def put(path, value):
        def edit(bad):
            *head, last = path
            for key in head:
                bad = bad[key]
            bad[last] = value
        return edit

    decimal_paths = [(f,) for f in DECIMAL_FIELDS]
    decimal_paths += [("exponents", i) for i in range(4)]
    int_paths = [("schema_version",), ("params", "p"), ("params", "m"),
                 ("params", "q"), ("profile", 0)]
    for i, _ in enumerate(doc["selections"]):
        int_paths += [("selections", i, "factor"),
                      ("selections", i, "positions", 0)]
    if "case_d" in doc:
        decimal_paths += [("case_d", k) for k in "rtabAB"]
        for i, _ in enumerate(doc["case_d"]["adjustments"]):
            int_paths.append(("case_d", "adjustments", i, "factor"))
    for path in decimal_paths:
        for value in DECIMAL_FALLBACKS:
            yield edited(put(path, value))
    for path in int_paths:
        yield edited(put(path, True))
    # an extra key and each missing key, at every level
    for index, record in enumerate(_records(doc)):
        def add(bad, index=index):
            _records(bad)[index]["extra"] = 1
        yield edited(add)
        for key in record:
            def drop(bad, index=index, key=key):
                del _records(bad)[index][key]
            yield edited(drop)


@pytest.fixture
def helper_calls(monkeypatch):
    """Counts of the calls the reader makes to each fallback helper."""
    calls = {}
    for name in ("_expect_keys", "_plain_int", "_int_from_string", "_list"):
        def counting(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    return calls


def test_documents_as_written_take_no_fallback(grid_documents,
                                               wide_documents, helper_calls):
    for doc in grid_documents + wide_documents:
        cli.certificate_from_document(doc)
    assert helper_calls == {}


def test_fallbacks_match_reference(grid_documents, helper_calls):
    # a case-D document with adjustments and two selections has a record
    # of every kind
    doc = next(d for d in grid_documents if "case_d" in d
               and d["case_d"]["adjustments"] and len(d["selections"]) > 1)
    count = 0
    for bad in _fallback_tampers(doc):
        _assert_same(bad)
        count += 1
    assert count > 100
    assert set(helper_calls) == {"_expect_keys", "_plain_int",
                                 "_int_from_string"}
