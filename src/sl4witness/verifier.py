"""Independent re-checking of witness certificates.

verify() trusts nothing but the group parameters: every property is
re-derived with plain integer arithmetic by this module's own helpers,
which take only the record types from the constructor.  Structural damage
(wrong sizes, out-of-range or unreduced entries) raises MalformedCertificate
before any check runs; semantic problems are collected per check label so a
caller can see everything that is wrong at once.

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
from typing import NamedTuple

from .arith import member as in_spectrum
from .params import (ALL_CASES, CASE_D, GroupParams, check_profile,
                     classify_profile, target_orders)
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


class MalformedCertificate(ValueError):
    """The certificate is structurally unusable; no checks were run."""


class VerificationReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]


def _fixed_point_exponent(p: int, exponents, selections) -> int:
    """sum over slots of p^i * (sum of selected exponents)."""
    total = 0
    for sel in selections:
        part = 0
        for j in sel.positions:
            part += exponents[j - 1]
        total += p**sel.factor * part
    return total


def _case_d_exponents(a: int, b: int, r: int, t: int, eps: int,
                      q: int) -> tuple[int, ...]:
    u, v, w = a, eps * q * a, r * b
    return tuple((x * u + y * v + z * w) % t for x, y, z in _CASE_D_FORMS)


def _case_d_coefficients(pr: GroupParams, selections):
    """(A, B) with weighted selected exponents a*A + r*b*B, or None when a
    selection is not a case-D shape."""
    sigma = tau = 0
    for sel in selections:
        coeffs = _CASE_D_SHAPES.get(sel.positions)
        if coeffs is None:
            return None
        weight = pr.p**sel.factor
        sigma += coeffs[0] * weight
        tau += coeffs[1] * weight
    return (1 + pr.epsilon * pr.q) * sigma, tau


def _check_positions(positions) -> None:
    """The shape rules, one by one, for positions not found in _SHAPES."""
    if not positions or any(j not in (1, 2, 3, 4) for j in positions):
        raise MalformedCertificate("selection positions must lie in 1..4")
    if tuple(sorted(set(positions))) != positions:
        raise MalformedCertificate(
            "selection positions must be strictly increasing")


def _structural_check(cert: WitnessCertificate) -> None:
    pr = cert.params
    if pr.q != pr.p**pr.m:
        raise MalformedCertificate("params: q != p^m")
    try:
        check_profile(cert.profile, pr.m)
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
    if not (all(map(isinstance, exps, (int, int, int, int)))
            and 0 <= min(exps) and max(exps) < N):
        raise MalformedCertificate(
            "exponents must be integers reduced mod theta_order")
    if cert.claimed_order < 1 or cert.target_order < 1:
        raise MalformedCertificate("orders must be positive")
    for sel in cert.selections:
        if not 0 <= sel.factor < pr.m:
            raise MalformedCertificate(
                f"selection factor {sel.factor} out of range")
        try:
            known = sel.positions in _SHAPES
        except TypeError:  # unhashable positions, a list say
            known = False
        if not known:
            _check_positions(sel.positions)
    if (cert.case == CASE_D) != (cert.case_d is not None):
        raise MalformedCertificate(
            "case_d data must be present exactly for case D_QcongEps")


def _check_case_d(cert: WitnessCertificate, n_ord: int | None, fail) -> None:
    """The case-D checks; n_ord is the case-D modulus at cert.params."""
    pr = cert.params
    cd = cert.case_d
    s2 = pr.two_part_qme
    if n_ord is None or cd.r != n_ord // s2:
        fail("V8", "case-D odd prime r does not match the parameters")
        return
    r = cd.r
    if cd.t != n_ord or cd.t != cert.theta_order:
        fail("V8", f"case-D modulus t = {cd.t} is inconsistent")
        return
    coeffs = _case_d_coefficients(pr, cert.selections)
    if coeffs is None:
        fail("V8", "selections do not have case-D shapes")
        return
    A, B = coeffs
    if (cd.coeff_a, cd.coeff_rb) != coeffs:
        fail("V8", "case-D coefficients do not reproduce from the selections")
    if (_case_d_exponents(cd.a, cd.b, r, cd.t, pr.epsilon, pr.q)
            != cert.exponents):
        fail("V8", "case-D exponents do not reproduce from (a, b)")
    if (cd.a * A + r * cd.b * B) % s2 != 0:
        fail("V8", "case-D congruence a*A + r*b*B != 0 mod (q-eps)_2")
    if (cd.a + cd.b) % 2 != 1:
        fail("V8", "case-D parity: a + b must be odd")
    if math.gcd(cd.a, r) != 1:
        fail("V8", "case-D: a must be coprime to r")


def verify(cert: WitnessCertificate, *, strict_values: bool = True,
           psl_orders=None) -> VerificationReport:
    """Run all checks; psl_orders optionally adds the spectrum cross-check."""
    _structural_check(cert)
    pr = cert.params
    eps, p, q = pr.epsilon, pr.p, pr.q
    N = cert.theta_order
    exps = cert.exponents
    e1, e2, e3, e4 = exps
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
    if order != cert.claimed_order:
        fail("V4", f"element order is {order}, certificate claims "
                   f"{cert.claimed_order}")

    k_s = N // math.gcd(N, e2 - e1, e3 - e1, e4 - e1)
    if cert.claimed_order % k_s == 0 and cert.claimed_order != k_s:
        fail("V5", f"g^{k_s} is scalar and {k_s} properly divides the "
                   "claimed order, so the projective order is smaller")

    active = [i for i, k in enumerate(cert.profile) if k > 0]
    if [s.factor for s in cert.selections] != active:
        fail("V6", "selections do not cover exactly the active profile slots")
    else:
        for sel in cert.selections:
            want = cert.profile[sel.factor]
            if len(sel.positions) != want:
                fail("V6", f"slot {sel.factor} selects {len(sel.positions)} "
                           f"positions, profile wants {want}")
        # distinct positions pick distinct values unless exponents coincide
        if len({e1, e2, e3, e4}) < 4:
            for sel in cert.selections:
                vals = [exps[j - 1] for j in sel.positions]
                if len(set(vals)) != len(vals):
                    msg = (f"slot {sel.factor} selects coinciding "
                           "characteristic values")
                    if strict_values:
                        fail("V6", msg)
                    else:
                        warnings.append(("V6", msg))

    if _fixed_point_exponent(p, exps, cert.selections) % N != 0:
        fail("V7", "weighted fixed-point exponent does not vanish mod N")

    expected_case = classify_profile(cert.profile, pr)
    if expected_case != cert.case:
        fail("V8", f"profile classifies as {expected_case}, certificate "
                   f"says {cert.case}")
    n_ord = target_orders(pr, cert.case)
    if n_ord is None:
        fail("V8", f"case {cert.case} does not apply at q = {q}")
    else:
        if cert.theta_order != n_ord:
            fail("V8", f"theta order {cert.theta_order} != case modulus "
                       f"{n_ord}")
        if cert.claimed_order != n_ord:
            fail("V8", f"claimed order {cert.claimed_order} != case order "
                       f"{n_ord}")
    if cert.target_order != p * cert.claimed_order:
        fail("V8", "target order is not p * claimed order")
    if cert.case_d is not None:
        _check_case_d(cert, n_ord, fail)
    if psl_orders is not None:
        if not in_spectrum(psl_orders, cert.claimed_order):
            fail("V8", f"claimed order {cert.claimed_order} is not an order "
                       "of the projective group")
        if in_spectrum(psl_orders, cert.target_order):
            fail("V8", f"target order {cert.target_order} is already an "
                       "order of the projective group")

    return VerificationReport(ok=not failures, failures=tuple(failures),
                              warnings=tuple(warnings))
