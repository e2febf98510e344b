"""The wire reader and writer as they were before the leaner rewrite.

cli.certificate_from_document checks each record's fields against
module-level key sets and its decimal strings with str.isascii and
str.isdigit, and cli.canonical_json writes the str and int leaves of a
dict or list in place.  This module keeps the earlier reader (a regex for
decimal strings, key tuples diffed on every record) and writer (one _dump
call per value) verbatim, but for the library's one type rule: an
integer is exactly an int, a list exactly a list, an object exactly a
dict and a string exactly a str.  The live versions must return the
same certificate or text, or raise the same exception with the same
message, on every input the equivalence tests give them.
"""

import json
import re

from sl4witness import arith
from sl4witness.cli import SCHEMA_VERSION, DocumentError
from sl4witness.params import derive, sign_from_str
from sl4witness.witness import (Adjustment, CaseDInternals, Selection,
                                WitnessCertificate)

_INT_STRING = re.compile(r"-?[0-9]+")

_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte.

    Written directly: json.dumps takes its pure-Python encoder whenever
    indent is set.  Strings and keys use the stdlib's C string encoder;
    tuples are written as lists, and a non-str key raises TypeError.
    """
    return _dump(doc, "\n") + "\n"


def _dump(value, newline: str) -> str:
    # newline is "\n" followed by the indentation of value's own line
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:  # bools and other ints go to json.dumps below
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + _dump(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dump(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def _expect_keys(obj, required, optional=(), where="document"):
    if type(obj) is not dict:
        raise DocumentError(f"{where} must be a JSON object")
    diff = obj.keys() ^ required
    if not diff:
        return
    unknown = sorted(k for k in diff if k in obj and k not in optional)
    if unknown:
        raise DocumentError(f"{where} has unknown fields: {unknown}")
    missing = sorted(k for k in diff if k not in obj)
    if missing:
        raise DocumentError(f"{where} is missing fields: {missing}")


def _int_from_string(value, where):
    # no integer in a valid document comes near SIZE_LIMIT
    if type(value) is not str or not _INT_STRING.fullmatch(value):
        raise DocumentError(f"{where} must be a decimal string")
    digits = arith.MAX_DIGITS
    if len(value) > digits and len(value.lstrip("-")) > digits:
        raise DocumentError(f"{where} has more than {digits} digits")
    return int(value)


def _plain_int(value, where):
    if type(value) is not int:
        raise DocumentError(f"{where} must be an integer")
    return value


def _list(value, where):
    if type(value) is not list:
        raise DocumentError(f"{where} must be a list")
    return value


def certificate_from_document(doc) -> WitnessCertificate:
    _expect_keys(doc, required=(
        "schema_version", "params", "profile", "case", "theta_order",
        "exponents", "claimed_order", "target_order", "selections",
    ), optional=("case_d",))
    if _plain_int(doc["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise DocumentError(
            f"unsupported schema_version {doc['schema_version']!r}")

    block = doc["params"]
    _expect_keys(block, ("epsilon", "p", "m", "q"), where="params")
    try:
        eps = sign_from_str(block["epsilon"])
        params = derive(eps, _plain_int(block["p"], "params.p"),
                        _plain_int(block["m"], "params.m"))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if _plain_int(block["q"], "params.q") != params.q:
        raise DocumentError("params.q does not equal p^m")

    profile = tuple(_plain_int(k, "profile entry")
                    for k in _list(doc["profile"], "profile"))

    case = doc["case"]
    if type(case) is not str:
        raise DocumentError("case must be a string")

    exponents = doc["exponents"]
    if type(exponents) is not list or len(exponents) != 4:
        raise DocumentError("exponents must be a list of four strings")
    exponents = tuple(_int_from_string(e, "exponent") for e in exponents)

    selections = []
    for entry in _list(doc["selections"], "selections"):
        _expect_keys(entry, ("factor", "positions"), where="selection")
        positions = _list(entry["positions"], "selection positions")
        selections.append(Selection(
            factor=_plain_int(entry["factor"], "selection factor"),
            positions=tuple(_plain_int(j, "selection position")
                            for j in positions),
        ))

    case_d = None
    if "case_d" in doc:
        block = doc["case_d"]
        _expect_keys(block, ("r", "t", "a", "b", "A", "B", "adjustments"),
                     where="case_d")
        adjustments = []
        for entry in _list(block["adjustments"], "case_d adjustments"):
            _expect_keys(entry, ("kind", "factor"), where="adjustment")
            kind = entry["kind"]
            if type(kind) is not str or kind not in ("flip", "swap"):
                raise DocumentError(f"unknown adjustment kind {kind!r}")
            adjustments.append(Adjustment(
                kind=entry["kind"],
                factor=_plain_int(entry["factor"], "adjustment factor"),
            ))
        case_d = CaseDInternals(
            r=_int_from_string(block["r"], "case_d.r"),
            t=_int_from_string(block["t"], "case_d.t"),
            a=_int_from_string(block["a"], "case_d.a"),
            b=_int_from_string(block["b"], "case_d.b"),
            coeff_a=_int_from_string(block["A"], "case_d.A"),
            coeff_rb=_int_from_string(block["B"], "case_d.B"),
            adjustments=tuple(adjustments),
        )

    return WitnessCertificate(
        params=params,
        profile=profile,
        case=case,
        theta_order=_int_from_string(doc["theta_order"], "theta_order"),
        exponents=exponents,
        selections=tuple(selections),
        claimed_order=_int_from_string(doc["claimed_order"], "claimed_order"),
        target_order=_int_from_string(doc["target_order"], "target_order"),
        case_d=case_d,
    )
