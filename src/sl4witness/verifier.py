"""Independent re-checking of witness certificates.

verify() trusts nothing but the group parameters: every property is
re-derived with plain integer arithmetic by this module's own helpers,
which take only the record types from the constructor.  Structural damage
(wrong sizes or types, out-of-range or unreduced entries) raises
MalformedCertificate before any check runs; semantic problems are collected
per check label so a caller can see everything that is wrong at once.

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
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

from .arith import member as in_spectrum
from .params import (ALL_CASES, CASE_D, classify_profile, is_plain_int,
                     target_orders)
from .witness import WitnessCertificate

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

_factor = attrgetter("factor")


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


def _check_positions(positions) -> None:
    """The shape rules, one by one, for positions not found in _SHAPES as
    a tuple of ints."""
    if not positions or any(not is_plain_int(j) or j not in (1, 2, 3, 4)
                            for j in positions):
        raise MalformedCertificate(
            "selection positions must be integers in 1..4")
    if tuple(sorted(set(positions))) != positions:
        raise MalformedCertificate(
            "selection positions must be strictly increasing")


def _structural_check(cert: WitnessCertificate) -> str:
    """Refuse a structurally unusable certificate; return the case its
    profile classifies as, which validates the profile on the way."""
    pr = cert.params
    if pr.q != pr.p**pr.m:
        raise MalformedCertificate("params: q != p^m")
    try:
        expected_case = classify_profile(cert.profile, pr)
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None
    if cert.case not in ALL_CASES:
        raise MalformedCertificate(f"unknown case tag {cert.case!r}")
    N = cert.theta_order
    if not isinstance(N, int) or N < 2:
        raise MalformedCertificate("theta_order must be an integer >= 2")
    exps = cert.exponents
    if len(exps) != 4:
        raise MalformedCertificate("exactly four exponents are required")
    e1, e2, e3, e4 = exps
    plain = (type(e1) is int and type(e2) is int and type(e3) is int
             and type(e4) is int) or all(map(is_plain_int, exps))
    if not (plain and 0 <= e1 < N and 0 <= e2 < N and 0 <= e3 < N
            and 0 <= e4 < N):
        raise MalformedCertificate(
            "exponents must be integers reduced mod theta_order")
    claimed, target = cert.claimed_order, cert.target_order
    if not ((type(claimed) is int and type(target) is int)
            or (is_plain_int(claimed) and is_plain_int(target))):
        raise MalformedCertificate("orders must be integers")
    if claimed < 1 or target < 1:
        raise MalformedCertificate("orders must be positive")
    m = pr.m
    for sel in cert.selections:
        try:
            factor, positions = sel.factor, sel.positions
        except AttributeError:  # a plain tuple, say
            raise MalformedCertificate(
                "selections must be Selection records") from None
        if type(factor) is not int and not is_plain_int(factor):
            raise MalformedCertificate("selection factor must be an integer")
        if not 0 <= factor < m:
            raise MalformedCertificate(
                f"selection factor {factor} out of range")
        try:
            known = positions in _SHAPES
        except TypeError:  # unhashable positions, a list say
            known = False
        if known:  # (1.0, 3.0) is found too
            for j in positions:
                if type(j) is not int:
                    known = False
        if not known:
            _check_positions(positions)
    cd = cert.case_d
    if (cert.case == CASE_D) != (cd is not None):
        raise MalformedCertificate(
            "case_d data must be present exactly for case D_QcongEps")
    if cd is not None:
        try:
            values = (cd.r, cd.t, cd.a, cd.b, cd.coeff_a, cd.coeff_rb)
        except AttributeError:
            raise MalformedCertificate(
                "case_d must be a CaseDInternals record") from None
        for x in values:
            if type(x) is not int and not is_plain_int(x):
                raise MalformedCertificate("case_d values must be integers")
    return expected_case


def _check_case_d(cert: WitnessCertificate, n_ord: int | None, coeffs,
                  fail) -> None:
    """The case-D checks; n_ord is the case-D modulus at cert.params, and
    coeffs the (A, B) with weighted selected exponents a*A + r*b*B, or None
    when a selection is not a case-D shape."""
    pr = cert.params
    cd = cert.case_d
    r, t = cd.r, cd.t
    s2 = pr.two_part_qme
    if n_ord is None or r != n_ord // s2:
        fail("V8", "case-D odd prime r does not match the parameters")
        return
    if t != n_ord or t != cert.theta_order:
        fail("V8", f"case-D modulus t = {t} is inconsistent")
        return
    if coeffs is None:
        fail("V8", "selections do not have case-D shapes")
        return
    A, B = coeffs
    a, b = cd.a, cd.b
    if (cd.coeff_a, cd.coeff_rb) != coeffs:
        fail("V8", "case-D coefficients do not reproduce from the selections")
    if _case_d_exponents(a, b, r, t, pr.epsilon, pr.q) != cert.exponents:
        fail("V8", "case-D exponents do not reproduce from (a, b)")
    if (a * A + r * b * B) % s2 != 0:
        fail("V8", "case-D congruence a*A + r*b*B != 0 mod (q-eps)_2")
    if (a + b) % 2 != 1:
        fail("V8", "case-D parity: a + b must be odd")
    if math.gcd(a, r) != 1:
        fail("V8", "case-D: a must be coprime to r")


def verify(cert: WitnessCertificate, *, strict_values: bool = True,
           psl_orders=None) -> VerificationReport:
    """Run all checks; psl_orders optionally adds the spectrum cross-check."""
    expected_case = _structural_check(cert)
    pr = cert.params
    eps, p, q = pr.epsilon, pr.p, pr.q
    N = cert.theta_order
    exps = cert.exponents
    e1, e2, e3, e4 = exps
    claimed = cert.claimed_order
    failures: list[tuple[str, str]] = []
    warnings: list[tuple[str, str]] = []

    def fail(label: str, msg: str) -> None:
        failures.append((label, msg))

    total = e1 + e2 + e3 + e4
    if total % N != 0:
        fail("V1", f"exponent sum {total} is not 0 mod {N}")

    twist = eps * q
    if (sorted([twist * e1 % N, twist * e2 % N, twist * e3 % N,
                twist * e4 % N]) != sorted(exps)):
        fail("V2", "exponent multiset is not stable under e -> eps*q*e")

    if math.gcd(N, p) != 1:
        fail("V3", f"theta order {N} shares a factor with p = {p}")

    order = N // math.gcd(N, e1, e2, e3, e4)
    if order != claimed:
        fail("V4", f"element order is {order}, certificate claims "
                   f"{claimed}")

    k_s = N // math.gcd(N, e2 - e1, e3 - e1, e4 - e1)
    if claimed % k_s == 0 and claimed != k_s:
        fail("V5", f"g^{k_s} is scalar and {k_s} properly divides the "
                   "claimed order, so the projective order is smaller")

    # V6, V7 and case D's (A, B) in one pass over the selections.  V6
    # checks slot by slot only when the selections cover exactly the
    # active profile slots, and reports sizes before coinciding values.
    profile = cert.profile
    selections = cert.selections
    covered = (list(map(_factor, selections))
               == [i for i, k in enumerate(profile) if k > 0])
    distinct = len({e1, e2, e3, e4}) == 4
    clashes = []
    fixed = sigma = tau = 0
    case_d_shapes = cert.case_d is not None
    for sel in selections:
        factor, positions = sel.factor, sel.positions
        weight = p**factor
        part = 0
        for j in positions:
            part += exps[j - 1]
        fixed += weight * part
        if case_d_shapes:
            coeffs = _CASE_D_SHAPES.get(positions)
            if coeffs is None:
                case_d_shapes = False
            else:
                sigma += coeffs[0] * weight
                tau += coeffs[1] * weight
        if covered:
            want = profile[factor]
            if len(positions) != want:
                fail("V6", f"slot {factor} selects {len(positions)} "
                           f"positions, profile wants {want}")
            # distinct positions pick distinct values unless exponents coincide
            if not distinct:
                vals = [exps[j - 1] for j in positions]
                if len(set(vals)) != len(vals):
                    clashes.append(f"slot {factor} selects coinciding "
                                   "characteristic values")
    if not covered:
        fail("V6", "selections do not cover exactly the active profile slots")
    for msg in clashes:
        if strict_values:
            fail("V6", msg)
        else:
            warnings.append(("V6", msg))

    if fixed % N != 0:
        fail("V7", "weighted fixed-point exponent does not vanish mod N")

    case = cert.case
    if expected_case != case:
        fail("V8", f"profile classifies as {expected_case}, certificate "
                   f"says {case}")
    n_ord = target_orders(pr, case)
    if n_ord is None:
        fail("V8", f"case {case} does not apply at q = {q}")
    else:
        if N != n_ord:
            fail("V8", f"theta order {N} != case modulus {n_ord}")
        if claimed != n_ord:
            fail("V8", f"claimed order {claimed} != case order {n_ord}")
    if cert.target_order != p * claimed:
        fail("V8", "target order is not p * claimed order")
    if cert.case_d is not None:
        _check_case_d(cert, n_ord,
                      ((1 + eps * q) * sigma, tau) if case_d_shapes else None,
                      fail)
    if psl_orders is not None:
        if not in_spectrum(psl_orders, claimed):
            fail("V8", f"claimed order {claimed} is not an order of the "
                       "projective group")
        if in_spectrum(psl_orders, cert.target_order):
            fail("V8", f"target order {cert.target_order} is already an "
                       "order of the projective group")

    return VerificationReport(not failures, tuple(failures), tuple(warnings))
