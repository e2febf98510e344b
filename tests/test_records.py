"""The record types: field order, immutability, defaults and repr.

Documents, dumps and messages are built from these records, and tests
compare their reprs, so their shape is pinned here.
"""

import pytest

from sl4witness import arith, ffield, params, spectrum, verifier, witness
from sl4witness.witness import Selection

FIELDS = {
    "PrimePower": ("prime", "exponent"),
    "GroupParams": ("epsilon", "p", "m", "q"),
    "Selection": ("factor", "positions"),
    "Adjustment": ("kind", "factor"),
    "CaseDInternals": ("r", "t", "a", "b", "coeff_a", "coeff_rb",
                       "adjustments"),
    "WitnessCertificate": ("params", "profile", "case", "theta_order",
                           "exponents", "selections", "claimed_order",
                           "target_order", "case_d"),
    "VerificationReport": ("ok", "failures", "warnings"),
    "OrbitRep": ("d", "e", "embedded"),
    "Matrix4": ("field", "rows"),
}


def _samples():
    """One value of each record type, taken from the library's own paths."""
    pr = params.derive(-1, 3, 3)
    cert = witness.construct(pr, (2, 1, 3))  # case D with two adjustments
    field = ffield.build_field(3, 2)
    return [
        arith.factorize(360)[0],
        pr,
        cert.selections[0],
        cert.case_d.adjustments[0],
        cert.case_d,
        cert,
        verifier.verify(cert),
        spectrum.enumerate_orbits(pr, 2)[0],
        ffield.diagonal(field, [field.one] * 4),
    ]


def test_every_record_is_sampled():
    assert [type(r).__name__ for r in _samples()] == list(FIELDS)


@pytest.mark.parametrize("record", _samples(),
                         ids=lambda r: type(r).__name__)
def test_record_contract(record):
    fields = FIELDS[type(record).__name__]
    assert record._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{type(record).__name__}({body})"


def test_record_reprs():
    assert repr(Selection(0, (1, 3))) == \
        "Selection(factor=0, positions=(1, 3))"
    assert repr(params.derive(1, 3, 1)) == \
        "GroupParams(epsilon=1, p=3, m=1, q=3)"
    assert repr(witness.Adjustment("flip", 1)) == \
        "Adjustment(kind='flip', factor=1)"


def test_certificate_case_d_defaults_to_none():
    cert = witness.construct(params.derive(1, 3, 1), (2,))
    assert witness.WitnessCertificate(*cert[:-1]).case_d is None


def test_group_params_equal_and_hash_equal_by_value():
    # derive's memo would hand back a itself; two records built apart
    # must still compare and hash alike
    a = params.derive(1, 3, 3)
    params.derive.cache_clear()
    b = params.derive_from_q(1, 27)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert params.derive(1, 3, 3) != params.derive(-1, 3, 3)
