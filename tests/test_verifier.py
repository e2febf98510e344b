"""Verifier tests: each check must catch the tampering aimed at it."""

import itertools
import json
import random
import time

import pytest

import verifier_reference
from sl4witness import (arith, cli, ffield, params, spectrum, verifier,
                        witness)
from verifier_reference import brute_force_selections, failed_checks
from sl4witness.ffield import RealizationError
from sl4witness.verifier import MalformedCertificate
from sl4witness.witness import Adjustment, Selection


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


_NOT_COVERED = ("V6", "selections do not cover exactly the active profile "
                      "slots")


@pytest.mark.parametrize("eps, p, profile", [(1, 3, (2, 0, 2)),
                                             (1, 5, (2, 0, 1))])
def test_coverage_edges_match_reference(eps, p, profile):
    # V6 asks for as many selections as active slots, with strictly
    # increasing factors on non-zero entries; (2, 0, 1) at q = 125 is
    # case D, so its (A, B) are gathered in the same pass
    cert = witness.construct(params.derive(eps, p, 3), profile)
    first, last = cert.selections
    assert (first.factor, last.factor) == (0, 2)
    edges = {
        "swapped": cert._replace(selections=(last, first)),
        "duplicate": cert._replace(selections=(first, first)),
        "zero_slot": cert._replace(
            selections=(first, Selection(1, last.positions))),
        "too_few": cert._replace(selections=(first,)),
        "too_many": cert._replace(selections=(first, last, last)),
        "list_profile": cert._replace(profile=list(profile),
                                      selections=(last,)),
    }
    for kind, bad in edges.items():
        for strict in (True, False):
            got = verifier.verify(bad, strict_values=strict)
            assert _NOT_COVERED in got.failures, kind
            assert got == verifier_reference.verify(bad,
                                                    strict_values=strict)


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


def test_case_that_does_not_apply(cert_d):
    # case D at q = 9 needs eps = +1; under eps = -1 it does not apply
    bad = cert_d._replace(params=params.derive(-1, 3, 2))
    for verify in (verifier.verify, verifier_reference.verify):
        assert (("V8", "case D_QcongEps does not apply at q = 9")
                in verify(bad).failures)


@pytest.mark.parametrize("p, m", [(3, 3 * 10**7), (3, 10**18),
                                  (10**1000, 10**4), (3.0, 2), (0, -1)])
def test_oversized_or_non_int_params_refused_promptly(cert_a, p, m):
    # q = 9 stays; derive bounds p**m before it computes it, 3.0**2
    # equals 9 but 3.0 is not an int, and 0**-1 would divide by zero
    bad = cert_a._replace(params=cert_a.params._replace(p=p, m=m))
    with pytest.raises(ValueError) as derived:
        params.derive(1, p, m)
    for verify in (verifier.verify, verifier_reference.verify):
        start = time.perf_counter()
        with pytest.raises(MalformedCertificate) as info:
            verify(bad)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == "params: " + str(derived.value)


# Each id but the last names its case by the message it earned before
# verify took the group through derive, so that the ids stay stable.
@pytest.mark.parametrize("eps, p, m, q, message", [
    pytest.param(1, 9, 1, 9, "params: p must be an odd prime, got 9",
                 id="1-9-1-9-9 is not prime"),
    pytest.param(1, 1, 10**18, 1, "params: p must be an odd prime, got 1",
                 id="1-1-1000000000000000000-1-1 is not prime"),
    pytest.param(1, -3, 1, -3, "params: p must be an odd prime, got -3",
                 id="1--3-1--3--3 is not prime"),
    pytest.param(1, 2, 1, 2, "params: p must be an odd prime, got 2",
                 id="1-2-1-2-params: p must be odd"),
    pytest.param(1, 3, 0, 1, "params: m must be >= 1, got 0",
                 id="1-3-0-1-params: m must be >= 1"),
    pytest.param(1, 10**1000, 0, 1,
                 f"params: p must be an odd prime, got {10**1000}",
                 id=f"1-{10**1000}-0-1-params: m must be >= 1"),
    pytest.param(0, 9, 1, 9, "params: epsilon must be +1 or -1",
                 id="0-9-1-9-params: epsilon must be +1 or -1"),
    pytest.param(1, 9, 2, 9, "params: p must be an odd prime, got 9",
                 id="1-9-2-9-params: q != p^m"),
    pytest.param(1, 3, 3, 9, "params: q != p^m", id="1-3-3-9-q is not p^m"),
])
def test_params_that_name_no_group_refused(cert_a, eps, p, m, q, message):
    # p = 9 passed case A at q = 9 (theta order 41, target 369), and m = 0
    # raised a bare ValueError from the primitive prime search; each is
    # refused in derive's words, and q is compared with p^m only once
    # derive has accepted (eps, p, m)
    bad = cert_a._replace(params=params.GroupParams(eps, p, m, q),
                          profile=(2,), selections=cert_a.selections[:1],
                          target_order=9 * cert_a.claimed_order)
    for verify in (verifier.verify, verifier_reference.verify):
        start = time.perf_counter()
        with pytest.raises(MalformedCertificate) as info:
            verify(bad)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == message
    with pytest.raises(RealizationError) as realized:
        ffield.realize(bad)
    assert str(realized.value) == message


def test_q_above_the_cap_refused(cert_a):
    # derive refuses both fields; the case-A certificate that construct
    # builds at q = 65537 verified ok, and at q = 2^61 - 1 target_orders
    # raised a bare ValueError; realize refuses in verify's words
    big = params.GroupParams(1, 65537, 1, 65537)
    huge = params.GroupParams(1, 2**61 - 1, 1, 2**61 - 1)
    for bad in (witness.construct(big, (2,)),
                cert_a._replace(params=huge, profile=(2,),
                                selections=cert_a.selections[:1],
                                target_order=huge.p * cert_a.claimed_order)):
        q = bad.params.q
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(bad)
            assert (str(info.value)
                    == f"params: q = {q}^1 exceeds supported bound 65536")
        with pytest.raises(RealizationError) as realized:
            ffield.realize(bad)
        assert str(realized.value) == str(info.value)


class _Liar(int):
    """Equal to everything, and 0 modulo anything."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __mod__(self, other):
        return 0

    __hash__ = int.__hash__


class _MinusParams(params.GroupParams):
    """Reads epsilon = -1 over a tuple that says +1."""

    @property
    def epsilon(self):
        return -1


class _TagLikeA(str):
    """Reads as some other tag, compares and hashes like A_R4."""

    def __eq__(self, other):
        return other == params.CASE_A

    def __ne__(self, other):
        return other != params.CASE_A

    def __hash__(self):
        return hash(params.CASE_A)


def test_subclasses_cannot_pass_a_false_certificate(cert_a):
    # each of these verified ok; the same claim in the plain type fails
    cert_b5 = witness.construct(params.derive(-1, 5, 1), (1,))
    assert cert_a.claimed_order == 41 and cert_b5.case == witness.CASE_B
    for bad, plain, failed_labels, message in (
            (cert_a._replace(claimed_order=_Liar(5), target_order=15),
             cert_a._replace(claimed_order=5, target_order=15),
             ("V4", "V8"), "orders must be integers"),
            # the document written from it says "epsilon": "+"
            (cert_b5._replace(params=_MinusParams(1, 5, 1, 5)),
             cert_b5._replace(params=params.GroupParams(1, 5, 1, 5)),
             ("V2", "V8"), "params must be a GroupParams record"),
            (cert_a._replace(case=_TagLikeA(witness.CASE_C)),
             cert_a._replace(case=witness.CASE_C),
             ("V8",), "unknown case tag 'C_QcongMinusEps'")):
        assert failed(plain) == failed_labels
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(bad)
            assert str(info.value) == message
        with pytest.raises(RealizationError) as realized:
            ffield.realize(bad)
        assert str(realized.value) == message


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
                                       [1.0, 3.0], [[1], 3], []])
def test_malformed_selection_position_type(cert_a, positions):
    # (1.0, 3.0) and (True, 3) hash like the allowed shape (1, 3)
    sels = (cert_a.selections[0], Selection(1, positions))
    for verify in (verifier.verify, verifier_reference.verify):
        with pytest.raises(MalformedCertificate,
                           match=r"^selection positions must be integers "
                                 r"in 1\.\.4$"):
            verify(cert_a._replace(selections=sels))


@pytest.fixture(scope="module")
def cert_d125():
    cert = witness.construct(params.derive(1, 5, 3), (2, 1, 0))
    assert cert.case == witness.CASE_D and cert.case_d.r == 3
    return cert


class _Tuple(tuple):
    pass


class _Text(str):
    pass


class _Certificate(witness.WitnessCertificate):
    pass


class _Selection(Selection):
    pass


class _CaseD(witness.CaseDInternals):
    pass


# Hand-built records with a wrong-typed field, and the message each earns;
# each once raised TypeError or AttributeError, or verified ok.  A subclass
# of a record, a tuple or an int is refused as a wrong type is: it may
# redefine the reads and comparisons the checks make.
_WRONG_TYPES = {
    "certificate_tuple": (lambda c: tuple(c),
                          "certificate must be a WitnessCertificate record"),
    "certificate_subclass": (lambda c: _Certificate(*c),
                             "certificate must be a WitnessCertificate "
                             "record"),
    "selection_subclass": (lambda c: c._replace(selections=tuple(
        _Selection(*sel) for sel in c.selections)),
        "selections must be Selection records"),
    "positions_tuple_subclass": (lambda c: c._replace(selections=tuple(
        sel._replace(positions=_Tuple(sel.positions))
        for sel in c.selections)),
        "selection positions must be integers in 1..4"),
    "positions_int": (lambda c: c._replace(selections=(
        c.selections[0]._replace(positions=3),) + c.selections[1:]),
        "selection positions must be integers in 1..4"),
    "case_d_subclass": (lambda c: c._replace(case_d=_CaseD(*c.case_d)),
                        "case_d must be a CaseDInternals record"),
    "profile_tuple_subclass": (lambda c: c._replace(
        profile=_Tuple(c.profile)), "profile must be a list or tuple"),
    "exponents_tuple_subclass": (lambda c: c._replace(
        exponents=_Tuple(c.exponents)), "exponents must be a list or tuple"),
    "selections_tuple_subclass": (lambda c: c._replace(
        selections=_Tuple(c.selections)),
        "selections must be a list or tuple"),
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
    "params_none": (lambda c: c._replace(params=None),
                    "params must be a GroupParams record"),
    # epsilon and the type of q, which once verified ok (1.0, True, 9.0),
    # failed V2 and V8 (0, 2) or raised TypeError ('x'); epsilon is tested
    # first, by derive
    "q_float": (lambda c: c._replace(params=c.params._replace(
        q=float(c.params.q))), "params: q != p^m"),
    "epsilon_float": (lambda c: c._replace(params=c.params._replace(
        epsilon=1.0)), "params: epsilon must be +1 or -1"),
    "epsilon_bool": (lambda c: c._replace(params=c.params._replace(
        epsilon=True)), "params: epsilon must be +1 or -1"),
    "epsilon_zero": (lambda c: c._replace(params=c.params._replace(
        epsilon=0)), "params: epsilon must be +1 or -1"),
    "epsilon_two": (lambda c: c._replace(params=c.params._replace(
        epsilon=2)), "params: epsilon must be +1 or -1"),
    "epsilon_str": (lambda c: c._replace(params=c.params._replace(
        epsilon="x")), "params: epsilon must be +1 or -1"),
    "epsilon_str_q_float": (lambda c: c._replace(params=c.params._replace(
        epsilon="x", q=float(c.params.q))),
        "params: epsilon must be +1 or -1"),
    "profile_none": (lambda c: c._replace(profile=None),
                     "profile must be a list or tuple"),
    "exponents_none": (lambda c: c._replace(exponents=None),
                       "exponents must be a list or tuple"),
    "selections_none": (lambda c: c._replace(selections=None),
                        "selections must be a list or tuple"),
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


@pytest.mark.parametrize("kind", _WRONG_TYPES)
def test_realize_refuses_what_verify_refuses(cert_a, cert_d125, kind):
    # realize runs the verifier's structural check, so each refusal comes
    # back with verify's wording
    tamper, message = _WRONG_TYPES[kind]
    certs = (cert_d125,) if kind.startswith("case_d") else (cert_a, cert_d125)
    for cert in certs:
        bad = tamper(cert)
        with pytest.raises(MalformedCertificate) as info:
            verifier.verify(bad)
        with pytest.raises(RealizationError) as realized:
            ffield.realize(bad)
        assert str(realized.value) == str(info.value) == message


def test_one_structural_pass_per_certificate(grid_inputs, monkeypatch):
    # verify reads V6, V7 and case D's (A, B) from the structural pass,
    # and the profile is classified once, inside it
    certs = [witness.construct(pr, profile) for pr, profile in grid_inputs]
    assert verifier.classify_profile is params.classify_profile
    calls = {"_structural_check": 0, "classify_profile": 0}
    for name in calls:
        def counting(*args, _real=getattr(verifier, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(verifier, name, counting)
    reports = [verifier.verify(cert) for cert in certs]
    assert calls == {"_structural_check": 1848, "classify_profile": 1848}
    assert all(report == (True, (), ()) for report in reports)


def test_list_fields_verify_like_tuples(cert_a, cert_d125):
    # a document parses into tuples, but lists are accepted too; case D's
    # exponents are compared with the ones reproduced from (a, b), and
    # positions given as a list were refused as not strictly increasing
    for cert in (cert_a, cert_d125):
        listed = cert._replace(profile=list(cert.profile),
                               exponents=list(cert.exponents),
                               selections=list(cert.selections))
        positions = cert._replace(selections=tuple(
            sel._replace(positions=list(sel.positions))
            for sel in cert.selections))
        for twin in (listed, positions):
            for verify in (verifier.verify, verifier_reference.verify):
                assert verify(twin) == verify(cert)
                assert verify(twin).ok
            assert ffield.realize(twin) == ffield.realize(cert)


@pytest.fixture(scope="module")
def cert_d25():
    cert = witness.construct(params.derive(1, 5, 2), (1, 2))
    assert cert.case == witness.CASE_D and cert.case_d.adjustments == ()
    return cert


@pytest.mark.parametrize("adjustments, message", [
    (None, "case_d adjustments must be a list or tuple"),
    (_Tuple(), "case_d adjustments must be a list or tuple"),
    ((("bogus", 9.5),), "case_d adjustments must be Adjustment records"),
    ((("flip", 1),), "case_d adjustments must be Adjustment records"),
    ((Adjustment("bogus", 1),), "unknown adjustment kind 'bogus'"),
    ((Adjustment(None, 1),), "unknown adjustment kind None"),
    ((Adjustment(_Text("flip"), 1),), "unknown adjustment kind 'flip'"),
    ((Adjustment("swap", 1.0),), "adjustment factor must be an integer"),
    ((Adjustment("flip", True),), "adjustment factor must be an integer"),
    ([Adjustment("flip", 0), Adjustment("swap", "1")],
     "adjustment factor must be an integer"),
])
def test_case_d_adjustments_are_read_by_the_readers_rule(cert_d25,
                                                         adjustments,
                                                         message):
    # None and (("bogus", 9.5),) verified ok, and the document writer then
    # raised TypeError and AttributeError
    bad = cert_d25._replace(case_d=cert_d25.case_d._replace(
        adjustments=adjustments))
    for verify in (verifier.verify, verifier_reference.verify):
        with pytest.raises(MalformedCertificate) as info:
            verify(bad)
        assert str(info.value) == message
    with pytest.raises(RealizationError) as realized:
        ffield.realize(bad)
    assert str(realized.value) == message


def test_case_d_adjustments_need_no_range(cert_d25):
    # the document reader checks no range, so neither does verify: what it
    # accepts writes a document that reads back to the same certificate
    for adjustments in ([], (Adjustment("flip", 0),),
                        [Adjustment("swap", -7), Adjustment("flip", 10**30)]):
        twin = cert_d25._replace(case_d=cert_d25.case_d._replace(
            adjustments=adjustments))
        for verify in (verifier.verify, verifier_reference.verify):
            assert verify(twin) == (True, (), ())
        back = cli.certificate_from_document(json.loads(cli.canonical_json(
            cli.certificate_to_document(twin))))
        assert back == twin._replace(case_d=twin.case_d._replace(
            adjustments=tuple(adjustments)))


class _Int(int):
    pass


def _one_definition_params():
    """A fixed hostile set of (eps, p, m, q), then a seeded sample of
    fields with p below 60 and m below 5, some past Q_CAP."""
    hostile = [(1, p, 2, 9) for p in (-3, 0, 1, 2, 9, 3.0, True, 10**1000,
                                      10**40 + 1, [3], _Int(3))]
    hostile += [(1, p, 1, p) for p in (-3, 0, 1, 2, 9, 10**40 + 1,
                                       65537, 2**61 - 1)]
    hostile += [(1, 3, m, 9) for m in (0, -1, 2.0, 10**18, _Int(2), [2])]
    hostile += [(1, p, 0, 1) for p in (3, 9, 10**1000)]
    hostile += [(eps, 3, 2, 9) for eps in (0, 2, 1.0, True, "x", -1.0,
                                           _Int(1), None, [1])]
    hostile += [(1, 3, 2, q) for q in (9.0, 8, 10, _Int(9), True, "9", None)]
    hostile += [("x", 9, 0, 9.0), (0, [3], {2}, None), (1, 3, 3, 9)]
    rnd = random.Random(3501)
    primes = [p for p in range(3, 60) if arith.is_prime(p)]
    sample = [(rnd.choice((1, -1)), rnd.choice(primes), rnd.randint(1, 4))
              for _ in range(40)]
    return hostile + [(eps, p, m, p**m) for eps, p, m in sample]


def _refusal(eps, p, m, q):
    """derive's words for what it refuses, the q test's when q is not
    exactly p^m, or None when the parameters name a group."""
    try:
        pr = params.derive(eps, p, m)
    except (ValueError, TypeError) as exc:
        return "params: " + str(exc)
    return None if type(q) is int and q == pr.q else "params: q != p^m"


def test_verify_and_realize_take_the_group_through_derive(cert_a):
    refused = 0
    for eps, p, m, q in _one_definition_params():
        message = _refusal(eps, p, m, q)
        if message is None:
            pr = params.derive(eps, p, m)
            rnd = random.Random(q)
            cert = witness.construct(pr, tuple(rnd.randint(0, 3)
                                               for _ in range(m)))
            for verify in (verifier.verify, verifier_reference.verify):
                assert verify(cert).ok
            if arith.power_at_most(p, 12 * m, arith.SIZE_LIMIT) is None:
                with pytest.raises(RealizationError) as realized:
                    ffield.realize(cert)
                assert (str(realized.value)
                        == f"field F_{p}^{12 * m} exceeds the size limit")
            else:
                assert (ffield.realize(cert).field.order
                        == p ** (12 * m))
            continue
        refused += 1
        bad = cert_a._replace(params=params.GroupParams(eps, p, m, q))
        for check, error in ((verifier.verify, MalformedCertificate),
                             (verifier_reference.verify,
                              MalformedCertificate),
                             (ffield.realize, RealizationError)):
            start = time.perf_counter()
            with pytest.raises(error) as info:
                check(bad)
            assert time.perf_counter() - start < 0.1, (eps, p, m, q)
            assert str(info.value) == message, (eps, p, m, q)
    assert refused > 50


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
    # a list is judged as the tuple it lists
    for positions in ((3, 1), [3, 1], [1, 1]):
        sels = (Selection(0, positions),) + cert_a.selections[1:]
        bad = cert_a._replace(selections=sels)
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate,
                               match="^selection positions must be "
                                     "strictly increasing$"):
                verify(bad)
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


# V1-V5 are memoized by (N, exponents, eps*q, p, claimed); a warm entry
# must answer only for the certificate it fits, and never let a wrong type
# through.

def _outcome(verify, cert, **kwargs):
    try:
        return verify(cert, **kwargs)
    except MalformedCertificate as exc:
        return ("malformed", str(exc))


def _twins(cert):
    """Twins of cert with every field's type kept: changed exponents,
    claimed order (target p * claimed, and once not) and theta order."""
    p, N, exps = cert.params.p, cert.theta_order, tuple(cert.exponents)
    c = cert.claimed_order
    twins = [cert._replace(exponents=tuple((e + 1) % N for e in exps)),
             cert._replace(exponents=exps[::-1]),
             cert._replace(exponents=(exps[1], exps[0]) + exps[2:]),
             cert._replace(exponents=tuple(2 * e % N for e in exps)),
             cert._replace(exponents=(0, 0, 0, 0)),
             cert._replace(target_order=p * c + 1)]
    twins += [cert._replace(claimed_order=k, target_order=p * k)
              for k in (c + 1, 2 * c, max(1, c // 2), 1)]
    twins += [cert._replace(theta_order=n) for n in (N + 1, 2 * N, p * N)]
    return twins


@pytest.fixture(scope="module")
def one_per_case(cert_a, cert_d, cert_d125):
    certs = [cert_a, cert_d, cert_d125,
             witness.construct(params.derive(-1, 7, 2), (1, 2)),
             witness.construct(params.derive(1, 3, 3), (2, 0, 2)),
             witness.construct(params.derive(1, 11, 1), (1,))]
    assert {c.case for c in certs} == set(params.ALL_CASES)
    return certs


def test_warm_order_checks_answer_twins_like_the_reference(one_per_case):
    for cert in one_per_case:
        verifier._order_checks.cache_clear()
        assert verifier.verify(cert).ok
        for twin in _twins(cert):
            for strict in (True, False):
                want = _outcome(verifier_reference.verify, twin,
                                strict_values=strict)
                # once as the cache first sees the twin, once warm
                for _ in range(2):
                    assert _outcome(verifier.verify, twin,
                                    strict_values=strict) == want
        assert verifier._order_checks.cache_info().hits > 0
        assert verifier.verify(cert) == (True, (), ())


def test_warm_order_checks_still_refuse_wrong_types(cert_a):
    # 1.0 and True equal cert_a's first exponent, 1, and hash like it; a
    # float theta order or claimed order equals the int one too
    assert cert_a.exponents[0] == 1
    verifier._order_checks.cache_clear()
    assert verifier.verify(cert_a).ok
    rest = cert_a.exponents[1:]
    for bad, message in (
            (cert_a._replace(exponents=(1.0,) + rest),
             "exponents must be integers reduced mod theta_order"),
            (cert_a._replace(exponents=(True,) + rest),
             "exponents must be integers reduced mod theta_order"),
            (cert_a._replace(theta_order=float(cert_a.theta_order)),
             "theta_order must be an integer >= 2"),
            (cert_a._replace(claimed_order=float(cert_a.claimed_order)),
             "orders must be integers")):
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(bad)
            assert str(info.value) == message


def test_int_subclass_twins_are_refused_before_the_order_cache(cert_a):
    # each earns the message a bool earns in its place, and no key of the
    # untyped cache is built from it
    class Int(int):
        pass

    twins = ((cert_a._replace(exponents=tuple(map(Int, cert_a.exponents))),
              "exponents must be integers reduced mod theta_order"),
             (cert_a._replace(theta_order=Int(cert_a.theta_order)),
              "theta_order must be an integer >= 2"),
             (cert_a._replace(claimed_order=Int(cert_a.claimed_order)),
              "orders must be integers"))
    verifier._order_checks.cache_clear()
    assert verifier.verify(cert_a).ok
    before = verifier._order_checks.cache_info()
    for twin, message in twins:
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(twin)
            assert str(info.value) == message
    assert verifier._order_checks.cache_info() == before


def test_order_checks_cache_stays_bounded():
    # 2 signs x 2 profiles of F_p for every odd prime p < 300: more
    # entries than the cache holds, verified twice so the first ones come
    # back after eviction, each with a tampered twin
    certs = [witness.construct(params.derive(eps, p, 1), profile)
             for p in range(3, 300, 2) if arith.is_prime(p)
             for eps in (1, -1) for profile in ((1,), (2,))]
    maxsize = verifier._order_checks.cache_info().maxsize
    assert maxsize == 64 and len(certs) > 2 * maxsize
    verifier._order_checks.cache_clear()
    for _ in range(2):
        for cert in certs:
            assert verifier.verify(cert) == (True, (), ())
            twin = cert._replace(claimed_order=cert.claimed_order + 1,
                                 target_order=cert.target_order + cert.params.p)
            assert verifier.verify(twin) == verifier_reference.verify(twin)
        assert verifier._order_checks.cache_info().currsize <= maxsize
    assert verifier._order_checks.cache_info().misses > 2 * maxsize


def test_int_subclass_epsilon_and_q_are_refused(cert_d):
    # as a bool is; derive tests epsilon before q is compared
    class Int(int):
        pass

    pr = cert_d.params
    for twin_params, message in (
            (pr._replace(epsilon=Int(pr.epsilon)),
             "params: epsilon must be +1 or -1"),
            (pr._replace(q=Int(pr.q)), "params: q != p^m"),
            (pr._replace(epsilon=Int(pr.epsilon), q=Int(pr.q)),
             "params: epsilon must be +1 or -1")):
        twin = cert_d._replace(params=twin_params)
        for verify in (verifier.verify, verifier_reference.verify):
            with pytest.raises(MalformedCertificate) as info:
                verify(twin)
            assert str(info.value) == message
        with pytest.raises(RealizationError) as realized:
            ffield.realize(twin)
        assert str(realized.value) == message
