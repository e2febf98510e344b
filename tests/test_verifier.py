"""Verifier tests: each check must catch the tampering aimed at it."""

import itertools
import random
import time

import pytest

import verifier_reference
from sl4witness import arith, cli, params, spectrum, verifier, witness
from verifier_reference import brute_force_selections, failed_checks
from sl4witness.verifier import MalformedCertificate
from sl4witness.witness import Selection


@pytest.fixture(scope="module")
def cert_a():
    return witness.construct(params.derive(1, 3, 2), (2, 2))


@pytest.fixture(scope="module")
def cert_d():
    return witness.construct(params.derive(1, 3, 2), (2, 1))


def failed(cert, **kwargs):
    return failed_checks(verifier.verify(cert, **kwargs))


def test_clean_certificates_pass(cert_a, cert_d):
    for cert in (cert_a, cert_d):
        report = verifier.verify(cert)
        assert report.ok
        assert report.failures == ()
        assert report.warnings == ()


def test_sum_check_catches_shifted_exponent(cert_a):
    exps = (cert_a.exponents[0] + 1,) + cert_a.exponents[1:]
    bad = cert_a._replace(exponents=exps)
    assert "V1" in failed(bad)


def test_orbit_check_catches_non_closed_multiset(cert_a):
    # keep the sum intact but break closure under e -> eps*q*e
    exps = list(cert_a.exponents)
    exps[1] += 1
    exps[2] -= 1
    bad = cert_a._replace(exponents=tuple(exps))
    report = verifier.verify(bad)
    assert "V2" in failed_checks(report)


def test_coprimality_check():
    # hand-made certificate whose modulus shares a factor with p
    pr = params.derive(1, 5, 1)
    cert = witness.construct(pr, (0,))
    bad = cert._replace(
        theta_order=10, exponents=(1, 5, 4, 0), claimed_order=10,
        target_order=50, selections=())
    assert "V3" in failed(bad)


def test_order_check_catches_wrong_claim(cert_a):
    bad = cert_a._replace(
        claimed_order=cert_a.claimed_order + 1,
        target_order=3 * (cert_a.claimed_order + 1))
    assert "V4" in failed(bad)


def test_primitivity_check():
    # exponents all equal modulo N/ell for ell = 2: theta = 6, values
    # twice an orbit of step 3 mod 6, claimed order 2 only
    pr = params.derive(1, 3, 1)  # unused arithmetic, structural carrier
    base = witness.construct(pr, (0,))
    bad = base._replace(
        theta_order=6, exponents=(3, 3, 3, 3), claimed_order=2,
        target_order=6, selections=())
    report = verifier.verify(bad)
    assert "V5" in failed_checks(report)


def _v5_fails_by_factorization(n, exponents, claimed):
    """Reference V5 predicate: some power claimed/ell, ell a prime divisor
    of the claimed order, has all four exponents equal mod N."""
    if claimed == 1:
        return False
    return any(len({e * (claimed // ell) % n for e in exponents}) == 1
               for ell in arith.prime_divisors(claimed))


def test_primitivity_check_matches_factorization_reference(cert_a):
    cases = [(n, exps, claimed)
             for n in range(2, 7)
             for exps in itertools.product(range(n), repeat=4)
             for claimed in range(1, n + 1)]
    rnd = random.Random(5)
    for _ in range(2000):
        n = rnd.randrange(2, 1000)
        exps = tuple(rnd.randrange(n) for _ in range(4))
        claimed = rnd.choice((n, rnd.randrange(1, 2 * n)))
        cases.append((n, exps, claimed))
    mismatches = fails = 0
    for n, exps, claimed in cases:
        bad = cert_a._replace(theta_order=n, exponents=exps,
                              claimed_order=claimed)
        want = _v5_fails_by_factorization(n, exps, claimed)
        fails += want
        mismatches += ("V5" in failed(bad)) != want
    assert mismatches == 0
    assert 0 < fails < len(cases)


def test_primitivity_check_on_huge_claimed_order(cert_a):
    # a 128-bit semiprime is out of reach of the factorizer, and 2^130 + 1
    # is past SIZE_LIMIT; neither may hang or raise
    semiprime = (2**64 - 59) * (2**64 - 83)
    for claimed in (semiprime, 2**130 + 1):
        bad = cert_a._replace(claimed_order=claimed,
                              target_order=3 * claimed)
        start = time.perf_counter()
        report = verifier.verify(bad)
        assert time.perf_counter() - start < 2.0
        assert "V4" in failed_checks(report)


def test_selection_value_collision_strict_vs_lenient(cert_a):
    # doctor one exponent so the factor-0 selection picks equal values;
    # sums and orbits no longer matter here, only the V6 outcome
    bad = cert_a._replace(exponents=(1, 9, 1, 32))
    strict = verifier.verify(bad)
    assert "V6" in failed_checks(strict)
    lenient = verifier.verify(bad, strict_values=False)
    assert "V6" not in failed_checks(lenient)
    assert any("V6" in w for w in lenient.warnings)


def test_selection_coverage_mismatch(cert_a):
    bad = cert_a._replace(selections=(cert_a.selections[0],))
    assert "V6" in failed(bad)


def test_fixed_point_check_catches_swapped_selection(cert_a):
    # replace the factor-0 pair (1, 3) by (1, 2): values 1 + 9 != 0 mod 41
    sels = (Selection(0, (1, 2)),) + cert_a.selections[1:]
    bad = cert_a._replace(selections=sels)
    assert "V7" in failed(bad)


def test_case_tag_mismatch(cert_a):
    bad = cert_a._replace(case=witness.CASE_B)
    assert "V8" in failed(bad)


def test_case_d_tamper(cert_d):
    cd = cert_d.case_d._replace(a=cert_d.case_d.a + 2)
    bad = cert_d._replace(case_d=cd)
    assert "V8" in failed(bad)
    cd = cert_d.case_d._replace(r=7)
    bad = cert_d._replace(case_d=cd)
    assert ("V8", "case-D odd prime r does not match the parameters") in \
        verifier.verify(bad).failures


def test_spectrum_cross_check(cert_a):
    psl = spectrum.omega(cert_a.params, group="PSL")
    assert verifier.verify(cert_a, psl_orders=psl).ok
    report = verifier.verify(cert_a, psl_orders=(1, 2))
    assert "V8" in failed_checks(report)


def test_malformed_profile_length(cert_a):
    bad = cert_a._replace(profile=(2,))
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)


@pytest.mark.parametrize("entry", [True, False, 1.0, [2]])
def test_malformed_profile_entry_type(cert_a, entry):
    # cert_a's profile is (2, 2); each entry hashes or compares like an
    # allowed value or is unhashable, and none is a plain int
    bad = cert_a._replace(profile=(entry, 2))
    with pytest.raises(MalformedCertificate,
                       match=r"entries must lie in \{0, 1, 2, 3\}"):
        verifier.verify(bad)


@pytest.mark.parametrize("factor", [1.0, True, "1"])
def test_malformed_selection_factor_type(cert_a, factor):
    # cert_a (q = 9) selects (1, 3) from factors 0 and 1; 1.0 and True
    # compare like 1, and "1" does not compare with ints at all
    sels = (cert_a.selections[0], Selection(factor, (1, 3)))
    with pytest.raises(MalformedCertificate,
                       match="selection factor must be an integer"):
        verifier.verify(cert_a._replace(selections=sels))


@pytest.mark.parametrize("positions", [(1.0, 3.0), (1, 3.0), (True, 3),
                                       [1.0, 3.0]])
def test_malformed_selection_position_type(cert_a, positions):
    # (1.0, 3.0) and (True, 3) hash like the allowed shape (1, 3)
    sels = (cert_a.selections[0], Selection(1, positions))
    with pytest.raises(MalformedCertificate,
                       match=r"positions must be integers in 1\.\.4"):
        verifier.verify(cert_a._replace(selections=sels))


@pytest.fixture(scope="module")
def cert_d125():
    cert = witness.construct(params.derive(1, 5, 3), (2, 1, 0))
    assert cert.case == witness.CASE_D and cert.case_d.r == 3
    return cert


# Hand-built records with a wrong-typed field, and the message each earns;
# each once raised TypeError or AttributeError, or verified ok.
_WRONG_TYPES = {
    "claimed_str": (lambda c: c._replace(claimed_order="41"),
                    "orders must be integers"),
    "orders_float": (lambda c: c._replace(claimed_order=41.0,
                                          target_order=123.0),
                     "orders must be integers"),
    "exponent_bool": (lambda c: c._replace(
        exponents=(True,) + c.exponents[1:]),
        "exponents must be integers reduced mod theta_order"),
    "selection_tuple": (lambda c: c._replace(
        selections=((0, (3,)),) + c.selections[1:]),
        "selections must be Selection records"),
    "case_d_r_float": (lambda c: c._replace(case_d=c.case_d._replace(r=3.0)),
                       "case_d values must be integers"),
    "case_d_a_str": (lambda c: c._replace(case_d=c.case_d._replace(a="1")),
                     "case_d values must be integers"),
    "case_d_tuple": (lambda c: c._replace(case_d=(1, 2)),
                     "case_d must be a CaseDInternals record"),
}


@pytest.mark.parametrize("kind", _WRONG_TYPES)
def test_wrong_typed_fields_are_malformed(cert_a, cert_d125, kind):
    # both first exponents are 1, which True equals; cert_d125's case-D
    # data has r = 3 and a = 1
    assert cert_a.exponents[0] == cert_d125.exponents[0] == 1
    tamper, message = _WRONG_TYPES[kind]
    certs = (cert_d125,) if kind.startswith("case_d") else (cert_a, cert_d125)
    for cert in certs:
        bad = tamper(cert)
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(bad)
            assert str(info.value) == message


def test_construct_refuses_what_the_document_format_refuses():
    # (True, 2) once built a case-D certificate whose own document the
    # parser refused
    pr = params.derive(1, 3, 2)
    for profile in ((True, 2), (False, 2), (1.0, 2), ([1], 2)):
        with pytest.raises(ValueError):
            witness.construct(pr, profile)
    cert = witness.construct(pr, (1, 2))
    doc = cli.certificate_to_document(cert)
    assert cli.certificate_from_document(doc) == cert
    doc["profile"][0] = True
    with pytest.raises(cli.DocumentError, match="profile entry"):
        cli.certificate_from_document(doc)


def test_malformed_unreduced_exponent(cert_a):
    exps = (cert_a.exponents[0] + cert_a.theta_order,) + cert_a.exponents[1:]
    bad = cert_a._replace(exponents=exps)
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)


def test_malformed_exponent_count(cert_a):
    bad = cert_a._replace(exponents=cert_a.exponents[:3])
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)


def test_malformed_positions(cert_a):
    sels = (Selection(0, (3, 1)),) + cert_a.selections[1:]
    bad = cert_a._replace(selections=sels)
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)
    sels = (Selection(0, (1, 5)),) + cert_a.selections[1:]
    bad = cert_a._replace(selections=sels)
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)
    sels = (Selection(7, (1, 3)),) + cert_a.selections[1:]
    bad = cert_a._replace(selections=sels)
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)


def test_malformed_case_tag(cert_a):
    bad = cert_a._replace(case="E_Unknown")
    with pytest.raises(MalformedCertificate):
        verifier.verify(bad)


def test_malformed_case_d_presence(cert_a, cert_d):
    with pytest.raises(MalformedCertificate):
        verifier.verify(cert_a._replace(case_d=cert_d.case_d))
    with pytest.raises(MalformedCertificate):
        verifier.verify(cert_d._replace(case_d=None))


def test_malformed_tiny_orders(cert_a):
    with pytest.raises(MalformedCertificate):
        verifier.verify(cert_a._replace(theta_order=1))
    with pytest.raises(MalformedCertificate):
        verifier.verify(cert_a._replace(claimed_order=0))


def test_verify_handles_claimed_one_without_crashing(cert_a):
    # degenerate claim must fail checks, not blow up inside factoring
    bad = cert_a._replace(claimed_order=1, target_order=3)
    report = verifier.verify(bad)
    assert not report.ok


def test_in_spectrum():
    orders = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 20)
    assert verifier.in_spectrum(orders, 5)
    assert verifier.in_spectrum(orders, 4)   # divides 8, 12, 20
    assert not verifier.in_spectrum(orders, 15)
    assert not verifier.in_spectrum(orders, 40)
    with pytest.raises(ValueError):
        verifier.in_spectrum(orders, 0)


def test_brute_force_selections_frozen():
    pr = params.derive(1, 3, 1)
    cert = witness.construct(pr, (2,))
    found = brute_force_selections(
        pr, (2,), cert.exponents, cert.theta_order)
    assert found == [(Selection(0, (1, 3)),), (Selection(0, (2, 4)),)]
    assert cert.selections in found


def test_brute_force_selections_all_zero():
    pr = params.derive(1, 3, 1)
    cert = witness.construct(pr, (0,))
    found = brute_force_selections(
        pr, (0,), cert.exponents, cert.theta_order)
    assert found == [()]


def test_brute_force_selections_size_guard():
    pr = params.derive(1, 3, 1)
    with pytest.raises(ValueError):
        brute_force_selections(
            pr, (1,) * 7, (1, 3, 4, 2), 5)
