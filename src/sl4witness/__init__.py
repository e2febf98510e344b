"""Witness-order certificates and exact element-order spectra for the
four-dimensional special linear and unitary groups over small odd fields.

The package builds certificates naming a semisimple element whose order,
multiplied by the field characteristic, falls outside the spectrum of the
projective group; an independent verifier re-checks every claim, an exact
spectrum oracle confirms the order-theoretic facts for every supported q,
and explicit matrix realization plus random sampling cross-check the whole
pipeline.

Importing the package loads what construct, verify and sweep run: arith,
params, witness, verifier and cli.  The spectrum oracle and the explicit
field layer load on first use of one of their names, or of the
submodules sl4witness.spectrum and sl4witness.ffield (PEP 562), so a
process that never asks for them never compiles them.
"""

import importlib

from .arith import (PrimePower, SIZE_LIMIT, factorize, is_prime, member,
                    prime_divisors, primitive_prime_divisor, two_part)
from .params import (CASE_A, CASE_B, CASE_C, CASE_D, GroupParams, Q_CAP,
                     classify_profile, derive, derive_from_q, sign_from_str,
                     sign_to_str, target_orders)
from .witness import (Adjustment, CaseDInternals, ConstructionError,
                      Selection, WitnessCertificate, construct)
from .verifier import MalformedCertificate, VerificationReport, verify
from .cli import (canonical_json, certificate_from_document,
                  certificate_to_document, main)

__version__ = "0.1.0"

# Names resolved on first access, by the submodule that defines them.
_LAZY_MODULES = {
    "spectrum": ("OrbitRep", "enumerate_orbits", "format_dump", "omega",
                 "parse_dump"),
    "ffield": ("Field", "Matrix4", "RealizationError", "build_field",
               "element_of_order", "realize", "sample_orders"),
}
_LAZY = {name: mod for mod, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    "Adjustment", "CASE_A", "CASE_B", "CASE_C", "CASE_D", "CaseDInternals",
    "ConstructionError", "Field", "GroupParams",
    "MalformedCertificate", "Matrix4", "OrbitRep", "PrimePower", "Q_CAP",
    "RealizationError", "SIZE_LIMIT", "Selection",
    "VerificationReport", "WitnessCertificate",
    "canonical_json", "certificate_from_document",
    "certificate_to_document", "classify_profile",
    "construct", "derive", "derive_from_q", "element_of_order",
    "enumerate_orbits", "factorize", "format_dump", "build_field",
    "is_prime", "main", "member", "omega",
    "parse_dump",
    "prime_divisors", "primitive_prime_divisor", "realize", "sample_orders",
    "sign_from_str", "sign_to_str", "target_orders", "two_part", "verify",
]


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
