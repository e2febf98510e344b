"""Command-line front end.

Subcommands:

  construct   build one certificate, print it as canonical JSON
  verify      re-check a certificate document, optionally against a spectrum
  sweep       construct and verify every profile over a parameter grid
  spectrum    print an exact order spectrum as a plain-text dump
  ppd         least primitive prime divisor of q^n - (eps*1)^n, or "none"

Exit codes: 0 success, 1 a certificate failed to construct or verify,
2 usage errors and malformed inputs.

The wire format is canonical JSON (json.dumps with sort_keys and indent
2), written by canonical_json into one list of parts that is joined
once.  certificate_from_document takes each record that is exactly what
the writer writes on a fast path, and hands anything else to the helper
that names what is wrong, so its DocumentError messages, and the order in
which they are raised, are those of the plain helper-per-field reader in
tests/cli_reference.py.
"""

import json
import sys
from itertools import product

from . import arith, verifier, witness
from .params import (ALL_CASES, Q_CAP, derive, derive_from_q, is_plain_int,
                     sign_from_str, sign_to_str)
from .witness import (Adjustment, CaseDInternals, Selection,
                      WitnessCertificate)

SCHEMA_VERSION = 1

# The fields of each record a document holds; a document may add case_d.
_DOCUMENT_KEYS = frozenset((
    "schema_version", "params", "profile", "case", "theta_order",
    "exponents", "claimed_order", "target_order", "selections"))
_PARAMS_KEYS = frozenset(("epsilon", "p", "m", "q"))
_SELECTION_KEYS = frozenset(("factor", "positions"))
_CASE_D_KEYS = frozenset(("r", "t", "a", "b", "A", "B", "adjustments"))
_ADJUSTMENT_KEYS = frozenset(("kind", "factor"))
_CASE_D_DOCUMENT_KEYS = _DOCUMENT_KEYS | {"case_d"}


class DocumentError(ValueError):
    """A wire document violates the schema."""


# ---------------------------------------------------------------------------
# wire format

def certificate_to_document(cert: WitnessCertificate) -> dict:
    """Big integers travel as decimal strings so nothing overflows a reader."""
    eps, p, m, q = cert.params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {"epsilon": sign_to_str(eps), "p": p, "m": m, "q": q},
        "profile": list(cert.profile),
        "case": cert.case,
        "theta_order": str(cert.theta_order),
        "exponents": [str(e) for e in cert.exponents],
        "claimed_order": str(cert.claimed_order),
        "target_order": str(cert.target_order),
        "selections": [
            {"factor": s.factor, "positions": list(s.positions)}
            for s in cert.selections
        ],
    }
    if cert.case_d is not None:
        cd = cert.case_d
        doc["case_d"] = {
            "r": str(cd.r),
            "t": str(cd.t),
            "a": str(cd.a),
            "b": str(cd.b),
            "A": str(cd.coeff_a),
            "B": str(cd.coeff_rb),
            "adjustments": [
                {"kind": adj.kind, "factor": adj.factor}
                for adj in cd.adjustments
            ],
        }
    return doc


_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte.

    Written directly: json.dumps takes its pure-Python encoder whenever
    indent is set.  Every piece of text is appended to one list of parts,
    joined once, with line breaks and the schema's field names encoded in
    advance.  Strings and keys use the stdlib's C string encoder; tuples
    are written as lists, and a non-str key raises TypeError.
    """
    parts = []
    _dump(doc, 0, parts)
    parts.append("\n")
    return "".join(parts)


def _breaks(depth: int, brackets: str) -> tuple:
    """(opening, separator, closing) of a container written between the
    two brackets, whose own line is indented to depth."""
    line = "\n" + "  " * (depth + 1)
    return (brackets[0] + line, "," + line,
            "\n" + "  " * depth + brackets[1])


# A document nests four deep; _dump builds deeper breaks on demand.
_OBJECT_BREAKS = tuple(_breaks(depth, "{}") for depth in range(8))
_ARRAY_BREAKS = tuple(_breaks(depth, "[]") for depth in range(8))
_KEY_TEXTS = {key: _encode_str(key) + ": " for key in (
    _CASE_D_DOCUMENT_KEYS | _PARAMS_KEYS | _SELECTION_KEYS | _CASE_D_KEYS
    | _ADJUSTMENT_KEYS)}


def _dump(value, depth: int, parts: list) -> None:
    # depth is the indentation of value's own line; the str and exact-int
    # leaves of a dict or list are written in place
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif type(value) is int:  # bools and other ints go to json.dumps below
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        separator, comma, closing = (
            _OBJECT_BREAKS[depth] if depth < len(_OBJECT_BREAKS)
            else _breaks(depth, "{}"))
        append = parts.append
        inner = depth + 1
        for key in sorted(value):
            append(separator)
            append(_KEY_TEXTS.get(key) or _encode_str(key) + ": ")
            item = value[key]
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(int.__repr__(item))
            else:
                _dump(item, inner, parts)
            separator = comma
        append(closing)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        separator, comma, closing = (
            _ARRAY_BREAKS[depth] if depth < len(_ARRAY_BREAKS)
            else _breaks(depth, "[]"))
        append = parts.append
        inner = depth + 1
        for item in value:
            append(separator)
            kind = type(item)
            if kind is str:
                append(_encode_str(item))
            elif kind is int:
                append(int.__repr__(item))
            else:
                _dump(item, inner, parts)
            separator = comma
        append(closing)
    else:
        parts.append(json.dumps(value))


def _expect_keys(obj, required, optional=(), where="document"):
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be a JSON object")
    diff = obj.keys() ^ required
    unknown = sorted(k for k in diff if k in obj and k not in optional)
    if unknown:
        raise DocumentError(f"{where} has unknown fields: {unknown}")
    missing = sorted(k for k in diff if k not in obj)
    if missing:
        raise DocumentError(f"{where} is missing fields: {missing}")


def _int_from_string(value, where):
    # ASCII digits after an optional "-": str.isdigit alone also takes
    # other scripts' digits and superscripts.  No integer in a valid
    # document comes near SIZE_LIMIT.
    if not isinstance(value, str):
        raise DocumentError(f"{where} must be a decimal string")
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise DocumentError(f"{where} must be a decimal string")
    if len(digits) > arith.MAX_DIGITS:
        raise DocumentError(
            f"{where} has more than {arith.MAX_DIGITS} digits")
    return int(value)


# (key, name in messages) of each decimal-string field of a record
_EXPONENT_FIELDS = tuple((i, "exponent") for i in range(4))
_CASE_D_FIELDS = tuple((key, "case_d." + key)
                       for key in ("r", "t", "a", "b", "A", "B"))
_ORDER_FIELDS = tuple((key, key) for key in (
    "theta_order", "claimed_order", "target_order"))


def _decimals(record, fields) -> list:
    """The ints that record's decimal strings at fields spell, in order."""
    values = []
    for key, where in fields:
        text = record[key]
        digits = text.removeprefix("-") if type(text) is str else ""
        values.append(
            int(text) if digits.isascii() and digits.isdigit()
            and len(digits) <= arith.MAX_DIGITS
            else _int_from_string(text, where))
    return values


def _plain_int(value, where):
    if is_plain_int(value):
        return value
    raise DocumentError(f"{where} must be an integer")


def _list(value, where):
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be a list")
    return value


def certificate_from_document(doc) -> WitnessCertificate:
    """The certificate a wire document holds, or DocumentError.

    Each value is first tested for the form the writer gives it: a dict
    with exactly its record's keys, an exact int, a decimal string of at
    most MAX_DIGITS ASCII digits after an optional "-".  Anything else
    goes to the helper that refuses it or, for a dict, list or int
    subclass, accepts it, so every message, and the order of the tests, is
    the helpers' own.
    """
    if not (type(doc) is dict and (doc.keys() == _DOCUMENT_KEYS
                                   or doc.keys() == _CASE_D_DOCUMENT_KEYS)):
        _expect_keys(doc, _DOCUMENT_KEYS, optional=("case_d",))
    version = doc["schema_version"]
    if type(version) is not int:
        _plain_int(version, "schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {version!r}")

    block = doc["params"]
    if not (type(block) is dict and block.keys() == _PARAMS_KEYS):
        _expect_keys(block, _PARAMS_KEYS, where="params")
    p, m, q = block["p"], block["m"], block["q"]
    try:
        eps = sign_from_str(block["epsilon"])
        if type(p) is not int:
            _plain_int(p, "params.p")
        if type(m) is not int:
            _plain_int(m, "params.m")
        params = derive(eps, p, m)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if type(q) is not int:
        _plain_int(q, "params.q")
    if q != params.q:
        raise DocumentError("params.q does not equal p^m")

    profile = doc["profile"]
    if type(profile) is not list:
        _list(profile, "profile")
    for k in profile:
        if type(k) is not int:
            _plain_int(k, "profile entry")
    profile = tuple(profile)

    case = doc["case"]
    if not isinstance(case, str):
        raise DocumentError("case must be a string")

    exponents = doc["exponents"]
    if not isinstance(exponents, list) or len(exponents) != 4:
        raise DocumentError("exponents must be a list of four strings")
    exponents = tuple(_decimals(exponents, _EXPONENT_FIELDS))

    selections = []
    entries = doc["selections"]
    if type(entries) is not list:
        _list(entries, "selections")
    for entry in entries:
        if not (type(entry) is dict and entry.keys() == _SELECTION_KEYS):
            _expect_keys(entry, _SELECTION_KEYS, where="selection")
        positions = entry["positions"]
        if type(positions) is not list:
            _list(positions, "selection positions")
        factor = entry["factor"]
        if type(factor) is not int:
            _plain_int(factor, "selection factor")
        for j in positions:
            if type(j) is not int:
                _plain_int(j, "selection position")
        selections.append(Selection(factor, tuple(positions)))

    case_d = None
    if "case_d" in doc:
        block = doc["case_d"]
        if not (type(block) is dict and block.keys() == _CASE_D_KEYS):
            _expect_keys(block, _CASE_D_KEYS, where="case_d")
        adjustments = []
        entries = block["adjustments"]
        if type(entries) is not list:
            _list(entries, "case_d adjustments")
        for entry in entries:
            if not (type(entry) is dict
                    and entry.keys() == _ADJUSTMENT_KEYS):
                _expect_keys(entry, _ADJUSTMENT_KEYS, where="adjustment")
            kind, factor = entry["kind"], entry["factor"]
            if kind not in ("flip", "swap"):
                raise DocumentError(f"unknown adjustment kind {kind!r}")
            if type(factor) is not int:
                _plain_int(factor, "adjustment factor")
            adjustments.append(Adjustment(kind, factor))
        case_d = CaseDInternals(*_decimals(block, _CASE_D_FIELDS),
                                tuple(adjustments))

    theta_order, claimed_order, target_order = _decimals(doc, _ORDER_FIELDS)
    return WitnessCertificate(params, profile, case, theta_order,
                              exponents, tuple(selections), claimed_order,
                              target_order, case_d)


# ---------------------------------------------------------------------------
# subcommands

def _write_text(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_profile(text: str) -> tuple:
    """The profile's integers; construct checks its shape against m."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"profile {text!r} is not comma-separated integers")


def cmd_construct(args) -> int:
    params = derive(sign_from_str(args.epsilon), args.p, args.m)
    profile = _parse_profile(args.profile)
    cert = witness.construct(params, profile)
    report = verifier.verify(cert)
    _write_text(args.out, canonical_json(certificate_to_document(cert)))
    if not report.ok:
        for label, msg in report.failures:
            print(f"{label} FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


def _load_psl_orders(source: str, cert: WitnessCertificate):
    # Imported here, as in cmd_spectrum, so that construct, verify without
    # a spectrum and sweep leave the spectrum module unloaded.
    from .spectrum import GROUP_PROJECTIVE, omega_maxima, parse_dump

    if source == "compute":
        return omega_maxima(cert.params, GROUP_PROJECTIVE)
    with open(source, "r", encoding="utf-8") as fh:
        dump_params, group, orders = parse_dump(fh.read())
    if group != GROUP_PROJECTIVE or dump_params != cert.params:
        raise DocumentError(
            "spectrum dump does not match the certificate parameters")
    return orders


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("JSON nested too deeply") from exc
    cert = certificate_from_document(doc)
    psl_orders = None
    if args.spectrum is not None:
        psl_orders = _load_psl_orders(args.spectrum, cert)
    report = verifier.verify(cert, strict_values=not args.lenient_values,
                             psl_orders=psl_orders)
    failed = {label for label, _ in report.failures}
    for label in verifier.CHECK_LABELS:
        print(f"{label} {'FAIL' if label in failed else 'ok'}")
    print(f"V8 spectrum: {args.spectrum or 'skipped'}")
    for label, msg in report.warnings:
        print(f"{label} warning: {msg}")
    if report.ok:
        print("certificate OK")
        return 0
    for label, msg in report.failures:
        print(f"{label}: {msg}")
    print("certificate REJECTED")
    return 1


def cmd_sweep(args) -> int:
    if args.p_max < 3:
        raise ValueError("p-max must admit at least one odd prime")
    if args.m_max < 1:
        raise ValueError("m-max must be at least 1")
    # refuse an oversized grid before scanning for primes, and its largest
    # field (derive's own check) before the first certificate
    if args.p_max > Q_CAP:
        raise ValueError(
            f"p-max {args.p_max} exceeds supported bound {Q_CAP}")
    primes = [n for n in range(3, args.p_max + 1) if arith.is_prime(n)]
    derive(1, primes[-1], args.m_max)
    signs = {"both": (1, -1), "+": (1,), "-": (-1,)}[args.epsilon]
    total = 0
    failed = 0
    tally = {case: 0 for case in ALL_CASES}
    for eps in signs:
        for p in primes:
            for m in range(1, args.m_max + 1):
                params = derive(eps, p, m)
                for profile in product((0, 1, 2, 3), repeat=m):
                    total += 1
                    cert = witness.construct(params, profile)
                    tally[cert.case] += 1
                    report = verifier.verify(cert)
                    if not report.ok:
                        failed += 1
                        if not args.quiet:
                            head = (f"eps={sign_to_str(eps)} p={p} m={m} "
                                    f"profile={','.join(map(str, profile))}")
                            for label, msg in report.failures:
                                print(f"FAIL {head}: {label} {msg}")
    counts = " ".join(f"{case}={tally[case]}" for case in ALL_CASES)
    print(f"checked {total} certificates: {counts}")
    if failed:
        print(f"{failed} certificates FAILED verification")
        return 1
    print("all certificates verified")
    return 0


def cmd_spectrum(args) -> int:
    from .spectrum import format_dump

    params = derive_from_q(sign_from_str(args.epsilon), args.q)
    _write_text(args.out, format_dump(params, args.group))
    return 0


def cmd_ppd(args) -> int:
    result = arith.primitive_prime_divisor(args.a, args.n,
                                           sign_from_str(args.epsilon))
    print("none" if result is None else result)
    return 0


def _build_parser() -> "argparse.ArgumentParser":
    # Imported here so that importing the library leaves argparse unloaded.
    import argparse

    parser = argparse.ArgumentParser(
        prog="sl4witness",
        description="Witness-order certificates and exact element-order "
                    "spectra for the four-dimensional linear and unitary "
                    "groups over small odd fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one certificate")
    c.add_argument("--epsilon", required=True, choices=["+", "-"])
    c.add_argument("--p", type=int, required=True, help="odd prime")
    c.add_argument("--m", type=int, required=True, help="extension degree")
    c.add_argument("--profile", required=True,
                   help="comma-separated entries k_0..k_{m-1}, each in 0..3")
    c.add_argument("--out", help="write the JSON document here")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-check a certificate document")
    v.add_argument("certificate", help="path to a JSON certificate")
    v.add_argument("--spectrum",
                   help="'compute' or a spectrum dump file for the "
                        "projective group")
    v.add_argument("--lenient-values", action="store_true",
                   help="downgrade coinciding selected values to a warning")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="construct+verify a whole grid")
    s.add_argument("--p-max", type=int, required=True)
    s.add_argument("--m-max", type=int, required=True)
    s.add_argument("--epsilon", choices=["both", "+", "-"], default="both")
    s.add_argument("--quiet", action="store_true")
    s.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("spectrum", help="print an exact order spectrum")
    sp.add_argument("--epsilon", required=True, choices=["+", "-"])
    sp.add_argument("--q", type=int, required=True, help="odd prime power")
    sp.add_argument("--group", choices=["SL", "PSL"], default="PSL")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("ppd", help="least primitive prime divisor")
    pp.add_argument("--a", type=int, required=True)
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--epsilon", required=True, choices=["+", "-"])
    pp.set_defaults(func=cmd_ppd)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except witness.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    # DocumentError and MalformedCertificate are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
