"""Command-line front end.

Subcommands:

  construct   build one certificate, print it as canonical JSON
  verify      re-check a certificate document, optionally against a spectrum
  sweep       construct and verify every profile over a parameter grid
  spectrum    print an exact order spectrum as a plain-text dump
  ppd         least primitive prime divisor of q^n - (eps*1)^n, or "none"

Exit codes: 0 success, 1 a certificate failed to construct or verify,
2 usage errors and malformed inputs.
"""

import json
import re
import sys
from itertools import product

from . import arith, verifier, witness
from .params import (ALL_CASES, Q_CAP, derive, derive_from_q, is_plain_int,
                     sign_from_str, sign_to_str)
from .witness import (Adjustment, CaseDInternals, Selection,
                      WitnessCertificate)

SCHEMA_VERSION = 1

_INT_STRING = re.compile(r"-?[0-9]+")


class DocumentError(ValueError):
    """A wire document violates the schema."""


# ---------------------------------------------------------------------------
# wire format

def certificate_to_document(cert: WitnessCertificate) -> dict:
    """Big integers travel as decimal strings so nothing overflows a reader."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "epsilon": sign_to_str(cert.params.epsilon),
            "p": cert.params.p,
            "m": cert.params.m,
            "q": cert.params.q,
        },
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
    if not isinstance(obj, dict):
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
    if not isinstance(value, str) or not _INT_STRING.fullmatch(value):
        raise DocumentError(f"{where} must be a decimal string")
    digits = arith.MAX_DIGITS
    if len(value) > digits and len(value.lstrip("-")) > digits:
        raise DocumentError(f"{where} has more than {digits} digits")
    return int(value)


def _plain_int(value, where):
    if not is_plain_int(value):
        raise DocumentError(f"{where} must be an integer")
    return value


def _list(value, where):
    if not isinstance(value, list):
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
    if not isinstance(case, str):
        raise DocumentError("case must be a string")

    exponents = doc["exponents"]
    if not isinstance(exponents, list) or len(exponents) != 4:
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
            if entry["kind"] not in ("flip", "swap"):
                raise DocumentError(f"unknown adjustment kind {entry['kind']!r}")
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
    from .spectrum import GROUP_PROJECTIVE, omega, parse_dump

    if source == "compute":
        return omega(cert.params, GROUP_PROJECTIVE)
    with open(source, "r", encoding="utf-8") as fh:
        dump_params, group, orders = parse_dump(fh.read())
    if (group != GROUP_PROJECTIVE
            or dump_params.epsilon != cert.params.epsilon
            or dump_params.q != cert.params.q):
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
    if args.p_max > Q_CAP or args.m_max >= Q_CAP.bit_length():
        raise ValueError(f"p-max {args.p_max} with m-max {args.m_max} "
                         f"exceeds supported bound {Q_CAP}")
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
