"""Witness-order certificates and exact element-order spectra for the
four-dimensional special linear and unitary groups over small odd fields.

The package builds certificates naming a semisimple element whose order,
multiplied by the field characteristic, falls outside the spectrum of the
projective group; an independent verifier re-checks every claim, an exact
spectrum oracle confirms the order-theoretic facts for every supported q,
and explicit matrix realization plus random sampling cross-check the whole
pipeline.

Importing the package loads what construct and verify run: arith, params,
witness and verifier.  The command line and wire format (cli), the
spectrum oracle and the explicit field layer load on first use of one of
their names, or of the submodules sl4witness.cli, sl4witness.spectrum and
sl4witness.ffield (PEP 562), so a process that never asks for them never
compiles them.
"""

import importlib

from . import arith, params, witness, verifier

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.  A name is bound
# here on its first access, which loads its submodule if need be.
_EXPORTS = {
    "arith": ("PrimePower", "SIZE_LIMIT", "factorize", "is_prime", "member",
              "prime_divisors", "primitive_prime_divisor", "two_part"),
    "params": ("CASE_A", "CASE_B", "CASE_C", "CASE_D", "GroupParams",
               "Q_CAP", "classify_profile", "derive", "derive_from_q",
               "sign_from_str", "sign_to_str", "target_orders"),
    "witness": ("Adjustment", "CaseDInternals", "ConstructionError",
                "Selection", "WitnessCertificate", "construct"),
    "verifier": ("MalformedCertificate", "VerificationReport", "verify"),
    "cli": ("canonical_json", "certificate_from_document",
            "certificate_to_document", "main"),
    "spectrum": ("OrbitRep", "enumerate_orbits", "format_dump", "omega",
                 "parse_dump"),
    "ffield": ("Field", "Matrix4", "RealizationError", "build_field",
               "element_of_order", "realize", "sample_orders"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
