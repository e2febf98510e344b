"""Witness-order certificates and exact element-order spectra for the
four-dimensional special linear and unitary groups over small odd fields.

The package builds certificates naming a semisimple element whose order,
multiplied by the field characteristic, falls outside the spectrum of the
projective group; an independent verifier re-checks every claim, an exact
spectrum oracle confirms the order-theoretic facts for every supported q,
and explicit matrix realization plus random sampling cross-check the whole
pipeline.
"""

from .arith import (PrimePower, SIZE_LIMIT, factorize, is_prime,
                    order_in_cyclic, prime_divisors,
                    primitive_prime_divisor, two_part)
from .params import (CASE_A, CASE_B, CASE_C, CASE_D, GroupParams, Q_CAP,
                     classify_profile, derive, derive_from_q, sign_from_str,
                     sign_to_str, target_orders)
from .witness import (Adjustment, CaseDInternals, ConstructionError,
                      Selection, WitnessCertificate, construct)
from .verifier import (MalformedCertificate, VerificationReport,
                       brute_force_selections, verify)
from .spectrum import (SPECTRUM_Q_CAP, OrbitRep, enumerate_orbits,
                       format_dump, member, omega, parse_dump)
from .ffield import (Field, Matrix4, RealizationError, build_field,
                     element_of_order, realize, sample_orders)
from .cli import (canonical_json, certificate_from_document,
                  certificate_to_document, main)

__version__ = "0.1.0"

__all__ = [
    "Adjustment", "CASE_A", "CASE_B", "CASE_C", "CASE_D", "CaseDInternals",
    "ConstructionError", "Field", "GroupParams",
    "MalformedCertificate", "Matrix4", "OrbitRep", "PrimePower", "Q_CAP",
    "RealizationError", "SIZE_LIMIT", "SPECTRUM_Q_CAP", "Selection",
    "VerificationReport", "WitnessCertificate",
    "brute_force_selections", "canonical_json", "certificate_from_document",
    "certificate_to_document", "classify_profile",
    "construct", "derive", "derive_from_q", "element_of_order",
    "enumerate_orbits", "factorize", "format_dump", "build_field",
    "is_prime", "main", "member", "omega",
    "order_in_cyclic", "parse_dump",
    "prime_divisors", "primitive_prime_divisor", "realize", "sample_orders",
    "sign_from_str", "sign_to_str", "target_orders", "two_part", "verify",
]
