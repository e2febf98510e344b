"""Independent re-checking of witness certificates.

verify() trusts nothing: it takes (eps, p, m) through params.derive and
requires q to be exactly the int p^m, then re-derives every other
property with integer arithmetic by this module's own helpers, which take
only the record types from the constructor.  Each value must be exactly
the type its record declares, an int, a str, a tuple or list, or the
record type: a subclass may redefine the reads and comparisons the checks
make.  Structural damage (wrong sizes or types, out-of-range or unreduced
entries, parameters that name no group) raises MalformedCertificate
before any check runs; semantic problems are collected per check label so
a caller can see everything that is wrong at once.
The structural check is the one pass over the selections: as it
type-checks them it also gathers what V6, V7 and case D's (A, B) need,
and verify reads those from it.

V1-V5 read only eight integers, (N, e1, e2, e3, e4, eps*q, p, claimed),
which a sweep repeats: every profile of a field shares N, and in cases
A-C the four exponents too.  So _order_checks, which returns their
failures, is memoized by that tuple in a bounded LRU cache of 64 entries;
verify builds the key only once the structural check has refused every
value among them that is not exactly an int, and starts its failure list
from the cached tuple, so every report, message and message order is what
the uncached checks give.  64 entries keep every key a grid sweep
revisits (a field has a few, all 4^8 profiles at q = 3^8 have 34); a
larger bound buys no hits and lengthens the garbage collector's young pass
wherever no key repeats, since each cached key is one more tuple to
traverse there.

Check labels:

  V1  exponent sum vanishes mod N, so the diagonal has determinant one
  V2  exponent multiset is stable under e -> eps*q*e, so the diagonal is
      fixed by the (twisted) field automorphism and lives in the group
  V3  N is coprime to the characteristic (the element is semisimple)
  V4  the claimed order is exactly N / gcd(N, e_1, e_2, e_3, e_4): in a
      cyclic group the lcm of the elements' orders is the order of the
      subgroup they generate
  V5  no power claimed/ell is scalar, so the image in the projective
      quotient keeps the full claimed order: g^k is scalar exactly when k
      is a multiple of k_s = N / gcd(N, e_2 - e_1, e_3 - e_1, e_4 - e_1),
      the lcm of the orders of all e_u - e_v, as those differences are
      generated by the three taken from e_1; V5 fails when k_s is a proper
      divisor of the claimed order
  V6  selections cover exactly the active profile slots, with the profile's
      cardinality and, by default, pairwise distinct selected values
  V7  sum_i p^i * (sum of selected exponents) vanishes mod N: the weighted
      product of selected characteristic values is 1, which is what lets a
      commuting p-cycle extend the order by a factor of p
  V8  order bookkeeping: case tag matches the profile, N and the claimed
      order equal the case modulus, target = p * claimed, case-D solving
      data reproduces, and (when a spectrum is supplied) claimed is an
      order of the projective group while target is not
"""

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, NoReturn

from .arith import member as in_spectrum, two_part
from .params import (ALL_CASES, CASE_D, GroupParams, classify_profile,
                     derive, target_orders)
from .witness import Adjustment, CaseDInternals, Selection, WitnessCertificate

CHECK_LABELS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8")

# The selection shapes the structural check accepts: the 15 nonempty
# strictly increasing subsets of the positions 1..4.
_SHAPES = frozenset(shape for k in range(1, 5)
                    for shape in combinations((1, 2, 3, 4), k))

# The case-D exponents (a, eps*q*a, r*b, -a*(1 + eps*q) - r*b) as integer
# combinations of (a, eps*q*a, r*b).
_CASE_D_FORMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))


def _case_d_shape_table() -> dict:
    """(sigma, tau) for each shape whose selected case-D exponents sum to
    sigma * a*(1 + eps*q) + tau * r*b, over the shapes of at most three
    positions (a profile entry is at most 3)."""
    table = {}
    for shape in _SHAPES:
        if len(shape) <= 3:
            x, y, z = map(sum, zip(*(_CASE_D_FORMS[j - 1] for j in shape)))
            if x == y:
                table[shape] = (x, z)
    return table


_CASE_D_SHAPES = _case_d_shape_table()


class MalformedCertificate(ValueError):
    """The certificate is structurally unusable; no checks were run."""


class VerificationReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]


def _case_d_exponents(a: int, b: int, r: int, t: int, eps: int,
                      q: int) -> tuple[int, ...]:
    u, v, w = a, eps * q * a, r * b
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = _CASE_D_FORMS
    return ((x1 * u + y1 * v + z1 * w) % t, (x2 * u + y2 * v + z2 * w) % t,
            (x3 * u + y3 * v + z3 * w) % t, (x4 * u + y4 * v + z4 * w) % t)


def _refuse_positions(positions) -> NoReturn:
    """Raise the shape rule that positions not found in _SHAPES as a tuple
    of ints break: every strictly increasing nonempty tuple of ints in
    1..4 is a shape, so the rest are out of order."""
    if (type(positions) is not tuple or not positions
            or any(type(j) is not int or j not in (1, 2, 3, 4)
                   for j in positions)):
        raise MalformedCertificate(
            "selection positions must be integers in 1..4")
    raise MalformedCertificate(
        "selection positions must be strictly increasing")


def _structural_check(cert: WitnessCertificate) -> tuple:
    """Refuse a structurally unusable certificate; on the way, gather what
    V6, V7 and case D's (A, B) need, so verify walks the selections once.

    Returns (case, fixed, coeffs, slots): the case the profile classifies
    as, which validates it; V7's sum of p^factor times the selected
    exponents; case D's (sigma, tau), (A, B) = ((1 + eps*q)*sigma, tau),
    or None without case-D data or when a selection is not a case-D shape;
    and None when the selections do not cover exactly the active slots (as
    many as non-zero entries, factors strictly increasing, each on a
    non-zero entry), else the list, in selection order, of a (factor,
    size, want, clash) entry for each slot whose size is not the
    profile's want or whose selected values coincide.
    """
    if type(cert) is not WitnessCertificate:
        raise MalformedCertificate(
            "certificate must be a WitnessCertificate record")
    pr = cert.params
    if type(pr) is not GroupParams:
        raise MalformedCertificate("params must be a GroupParams record")
    eps, p, m, q = pr  # faster than four attribute loads
    # derive's refusal in derive's words; a TypeError is an unhashable
    # field failing its cache lookup
    try:
        derived_q = derive(eps, p, m).q
    except (ValueError, TypeError) as exc:
        raise MalformedCertificate(f"params: {exc}") from None
    if type(q) is not int or q != derived_q:
        raise MalformedCertificate("params: q != p^m")
    profile = cert.profile
    if type(profile) is not tuple and type(profile) is not list:
        raise MalformedCertificate("profile must be a list or tuple")
    try:
        expected_case = classify_profile(profile, pr)
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None
    case = cert.case
    if type(case) is not str or case not in ALL_CASES:
        raise MalformedCertificate(f"unknown case tag {case!r}")
    N = cert.theta_order
    if type(N) is not int or N < 2:
        raise MalformedCertificate("theta_order must be an integer >= 2")
    exps = cert.exponents
    if type(exps) is not tuple and type(exps) is not list:
        raise MalformedCertificate("exponents must be a list or tuple")
    if len(exps) != 4:
        raise MalformedCertificate("exactly four exponents are required")
    e1, e2, e3, e4 = exps
    if not (type(e1) is int and type(e2) is int and type(e3) is int
            and type(e4) is int and 0 <= e1 < N and 0 <= e2 < N
            and 0 <= e3 < N and 0 <= e4 < N):
        raise MalformedCertificate(
            "exponents must be integers reduced mod theta_order")
    claimed, target = cert.claimed_order, cert.target_order
    if type(claimed) is not int or type(target) is not int:
        raise MalformedCertificate("orders must be integers")
    if claimed < 1 or target < 1:
        raise MalformedCertificate("orders must be positive")
    selections = cert.selections
    if type(selections) is not tuple and type(selections) is not list:
        raise MalformedCertificate("selections must be a list or tuple")
    cd = cert.case_d
    covered = len(selections) == m - profile.count(0)
    # distinct positions pick distinct values unless exponents coincide
    distinct = len({e1, e2, e3, e4}) == 4
    slots = []
    fixed = sigma = tau = 0
    shaped = cd is not None
    last = -1
    for sel in selections:
        if type(sel) is not Selection:
            raise MalformedCertificate("selections must be Selection records")
        factor, positions = sel
        if type(factor) is not int:
            raise MalformedCertificate("selection factor must be an integer")
        if not 0 <= factor < m:
            raise MalformedCertificate(
                f"selection factor {factor} out of range")
        if type(positions) is list:  # judged as the tuple it lists
            positions = tuple(positions)
        # (1.0, 3.0) and (True, 3) are found in _SHAPES too, so each
        # position's type is tested before it indexes the exponents
        try:
            known = type(positions) is tuple and positions in _SHAPES
        except TypeError:  # an unhashable position, a list say
            known = False
        if not known:
            _refuse_positions(positions)
        part = 0
        for j in positions:
            if type(j) is not int:
                _refuse_positions(positions)
            part += exps[j - 1]
        weight = p**factor
        fixed += weight * part
        if shaped:
            coeffs = _CASE_D_SHAPES.get(positions)
            if coeffs is None:
                shaped = False
            else:
                sigma += coeffs[0] * weight
                tau += coeffs[1] * weight
        if covered:
            want = profile[factor]
            if factor <= last or not want:
                covered = False
            last = factor
            size = len(positions)
            clash = (not distinct
                     and len({exps[j - 1] for j in positions}) != size)
            if clash or size != want:
                slots.append((factor, size, want, clash))
    if (case == CASE_D) != (cd is not None):
        raise MalformedCertificate(
            "case_d data must be present exactly for case D_QcongEps")
    if cd is not None:
        if type(cd) is not CaseDInternals:
            raise MalformedCertificate(
                "case_d must be a CaseDInternals record")
        for x in (cd.r, cd.t, cd.a, cd.b, cd.coeff_a, cd.coeff_rb):
            if type(x) is not int:
                raise MalformedCertificate("case_d values must be integers")
        # the document reader's rule, in its words
        adjustments = cd.adjustments
        if type(adjustments) is not tuple and type(adjustments) is not list:
            raise MalformedCertificate(
                "case_d adjustments must be a list or tuple")
        for adj in adjustments:
            if type(adj) is not Adjustment:
                raise MalformedCertificate(
                    "case_d adjustments must be Adjustment records")
            kind, factor = adj
            if type(kind) is not str or kind != "flip" and kind != "swap":
                raise MalformedCertificate(f"unknown adjustment kind {kind!r}")
            if type(factor) is not int:
                raise MalformedCertificate(
                    "adjustment factor must be an integer")
    return (expected_case, fixed, (sigma, tau) if shaped else None,
            slots if covered else None)


def _check_case_d(cert: WitnessCertificate, n_ord: int | None, coeffs,
                  fail) -> None:
    """The case-D checks; n_ord is the case-D modulus at cert.params,
    coeffs the (sigma, tau) of _structural_check, and fail appends a
    failure."""
    cd = cert.case_d
    r, t = cd.r, cd.t
    eps, q = cert.params.epsilon, cert.params.q
    s2 = two_part(q - eps)
    if n_ord is None or r != n_ord // s2:
        fail(("V8", "case-D odd prime r does not match the parameters"))
        return
    if t != n_ord or t != cert.theta_order:
        fail(("V8", f"case-D modulus t = {t} is inconsistent"))
        return
    if coeffs is None:
        fail(("V8", "selections do not have case-D shapes"))
        return
    A, B = (1 + eps * q) * coeffs[0], coeffs[1]
    a, b = cd.a, cd.b
    if cd.coeff_a != A or cd.coeff_rb != B:
        fail(("V8", "case-D coefficients do not reproduce from the "
                    "selections"))
    if _case_d_exponents(a, b, r, t, eps, q) != tuple(cert.exponents):
        fail(("V8", "case-D exponents do not reproduce from (a, b)"))
    if (a * A + r * b * B) % s2 != 0:
        fail(("V8", "case-D congruence a*A + r*b*B != 0 mod (q-eps)_2"))
    if (a + b) % 2 != 1:
        fail(("V8", "case-D parity: a + b must be odd"))
    if math.gcd(a, r) != 1:
        fail(("V8", "case-D: a must be coprime to r"))


@lru_cache(maxsize=64)
def _order_checks(N: int, e1: int, e2: int, e3: int, e4: int, twist: int,
                  p: int, claimed: int) -> tuple[tuple[str, str], ...]:
    """The failures of V1-V5, in that order, for theta order N, exponents
    e1..e4, twist = eps*q, characteristic p and the claimed order."""
    # a tuple that grows only on a failure: a pass builds no list to copy
    failures = ()

    total = e1 + e2 + e3 + e4
    if total % N != 0:
        failures += (("V1", f"exponent sum {total} is not 0 mod {N}"),)

    # sorted in place: sorted() would copy each list first
    twisted = [twist * e1 % N, twist * e2 % N, twist * e3 % N, twist * e4 % N]
    twisted.sort()
    exps = [e1, e2, e3, e4]
    exps.sort()
    if twisted != exps:
        failures += (("V2", "exponent multiset is not stable under "
                            "e -> eps*q*e"),)

    if math.gcd(N, p) != 1:
        failures += (("V3", f"theta order {N} shares a factor with "
                            f"p = {p}"),)

    order = N // math.gcd(N, e1, e2, e3, e4)
    if order != claimed:
        failures += (("V4", f"element order is {order}, certificate claims "
                            f"{claimed}"),)

    k_s = N // math.gcd(N, e2 - e1, e3 - e1, e4 - e1)
    if claimed % k_s == 0 and claimed != k_s:
        failures += (("V5", f"g^{k_s} is scalar and {k_s} properly divides "
                            "the claimed order, so the projective order is "
                            "smaller"),)
    return failures


# The report of every certificate that passes with no warning, built once:
# a NamedTuple and its two tuples are a measurable share of a passing verify.
_PASSED = VerificationReport(True, (), ())


def verify(cert: WitnessCertificate, *, strict_values: bool = True,
           psl_orders=None) -> VerificationReport:
    """Run all checks; psl_orders optionally adds the spectrum cross-check:
    any positive orders whose divisors make up the projective group's
    spectrum, in any order (omega, omega_maxima or a parsed dump)."""
    expected_case, fixed, coeffs, slots = _structural_check(cert)
    pr = cert.params
    p, q = pr.p, pr.q
    N = cert.theta_order
    e1, e2, e3, e4 = cert.exponents
    claimed = cert.claimed_order
    failures = list(_order_checks(N, e1, e2, e3, e4, pr.epsilon * q, p,
                                  claimed))
    fail = failures.append
    warnings: list[tuple[str, str]] = []

    # V6 checks slot by slot only when the selections cover exactly the
    # active profile slots, and reports sizes before coinciding values
    if slots is None:
        fail(("V6", "selections do not cover exactly the active profile "
                    "slots"))
    else:
        for factor, size, want, _ in slots:
            if size != want:
                fail(("V6", f"slot {factor} selects {size} positions, "
                            f"profile wants {want}"))
        for factor, _, _, clash in slots:
            if clash:
                msg = ("V6", f"slot {factor} selects coinciding "
                             "characteristic values")
                if strict_values:
                    fail(msg)
                else:
                    warnings.append(msg)

    if fixed % N != 0:
        fail(("V7", "weighted fixed-point exponent does not vanish mod N"))

    case = cert.case
    if expected_case != case:
        fail(("V8", f"profile classifies as {expected_case}, certificate "
                    f"says {case}"))
    n_ord = target_orders(pr, case)
    if n_ord is None:
        fail(("V8", f"case {case} does not apply at q = {q}"))
    else:
        if N != n_ord:
            fail(("V8", f"theta order {N} != case modulus {n_ord}"))
        if claimed != n_ord:
            fail(("V8", f"claimed order {claimed} != case order {n_ord}"))
    if cert.target_order != p * claimed:
        fail(("V8", "target order is not p * claimed order"))
    if cert.case_d is not None:
        _check_case_d(cert, n_ord, coeffs, fail)
    if psl_orders is not None:
        if not in_spectrum(psl_orders, claimed):
            fail(("V8", f"claimed order {claimed} is not an order of the "
                        "projective group"))
        if in_spectrum(psl_orders, cert.target_order):
            fail(("V8", f"target order {cert.target_order} is already an "
                        "order of the projective group"))

    if not failures and not warnings:
        return _PASSED
    return VerificationReport(not failures, tuple(failures), tuple(warnings))
