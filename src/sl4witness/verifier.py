"""Independent re-checking of witness certificates.

verify() trusts nothing but the group parameters: every property is
re-derived with plain integer arithmetic.  Structural damage (wrong sizes,
out-of-range or unreduced entries) raises MalformedCertificate before any
check runs; semantic problems are collected per check label so a caller can
see everything that is wrong at once.

Check labels:

  V1  exponent sum vanishes mod N, so the diagonal has determinant one
  V2  exponent multiset is stable under e -> eps*q*e, so the diagonal is
      fixed by the (twisted) field automorphism and lives in the group
  V3  N is coprime to the characteristic (the element is semisimple)
  V4  the claimed order is exactly lcm(N / gcd(N, e_j))
  V5  no power claimed/ell is scalar, so the image in the projective
      quotient keeps the full claimed order: g^k is scalar exactly when k
      is a multiple of k_s = lcm over u < v of N / gcd(N, e_u - e_v), so
      V5 fails when k_s is a proper divisor of the claimed order
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
from itertools import combinations, product
from typing import NamedTuple

from . import arith, params as params_mod, witness
from .params import (ALL_CASES, CASE_D, GroupParams, check_profile,
                     classify_profile)
from .spectrum import member as in_spectrum
from .witness import Selection, WitnessCertificate

CHECK_LABELS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7", "V8")


class MalformedCertificate(ValueError):
    """The certificate is structurally unusable; no checks were run."""


class VerificationReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(l for l in CHECK_LABELS
                     if any(label == l for label, _ in self.failures))


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
    if len(cert.exponents) != 4:
        raise MalformedCertificate("exactly four exponents are required")
    for e in cert.exponents:
        if not isinstance(e, int) or not 0 <= e < N:
            raise MalformedCertificate(
                "exponents must be integers reduced mod theta_order")
    if cert.claimed_order < 1 or cert.target_order < 1:
        raise MalformedCertificate("orders must be positive")
    for sel in cert.selections:
        if not 0 <= sel.factor < pr.m:
            raise MalformedCertificate(
                f"selection factor {sel.factor} out of range")
        if not sel.positions or any(j not in (1, 2, 3, 4) for j in sel.positions):
            raise MalformedCertificate("selection positions must lie in 1..4")
        if tuple(sorted(set(sel.positions))) != sel.positions:
            raise MalformedCertificate(
                "selection positions must be strictly increasing")
    if (cert.case == CASE_D) != (cert.case_d is not None):
        raise MalformedCertificate(
            "case_d data must be present exactly for case D_QcongEps")


def _check_case_d(cert: WitnessCertificate, fail) -> None:
    pr = cert.params
    eps, q = pr.epsilon, pr.q
    cd = cert.case_d
    s2 = pr.two_part_qme
    n_ord = params_mod.target_orders(pr, CASE_D)  # r * (q - eps)_2
    if n_ord is None or cd.r != n_ord // s2:
        fail("V8", "case-D odd prime r does not match the parameters")
        return
    r = cd.r
    if cd.t != n_ord or cd.t != cert.theta_order:
        fail("V8", f"case-D modulus t = {cd.t} is inconsistent")
        return
    try:
        A, B = witness.compute_AB(cert.profile, pr, cert.selections)
    except ValueError:
        fail("V8", "selections do not have case-D shapes")
        return
    if (cd.coeff_a, cd.coeff_rb) != (A, B):
        fail("V8", "case-D coefficients do not reproduce from the selections")
    if witness.case_d_exponents(cd.a, cd.b, r, cd.t, eps, q) != cert.exponents:
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
    failures: list[tuple[str, str]] = []
    warnings: list[tuple[str, str]] = []

    def fail(label: str, msg: str) -> None:
        failures.append((label, msg))

    total = sum(cert.exponents)
    if total % N != 0:
        fail("V1", f"exponent sum {total} is not 0 mod {N}")

    if sorted((eps * q * e) % N for e in cert.exponents) != sorted(cert.exponents):
        fail("V2", "exponent multiset is not stable under e -> eps*q*e")

    if math.gcd(N, p) != 1:
        fail("V3", f"theta order {N} shares a factor with p = {p}")

    order = 1
    for e in cert.exponents:
        order = math.lcm(order, N // math.gcd(N, e))
    if order != cert.claimed_order:
        fail("V4", f"element order is {order}, certificate claims "
                   f"{cert.claimed_order}")

    k_s = 1
    for u, v in combinations(cert.exponents, 2):
        k_s = math.lcm(k_s, arith.order_in_cyclic(N, u - v))
    if cert.claimed_order % k_s == 0 and cert.claimed_order != k_s:
        fail("V5", f"g^{k_s} is scalar and {k_s} properly divides the "
                   "claimed order, so the projective order is smaller")

    active = tuple(i for i, k in enumerate(cert.profile) if k > 0)
    if tuple(s.factor for s in cert.selections) != active:
        fail("V6", "selections do not cover exactly the active profile slots")
    else:
        for sel in cert.selections:
            want = cert.profile[sel.factor]
            if len(sel.positions) != want:
                fail("V6", f"slot {sel.factor} selects {len(sel.positions)} "
                           f"positions, profile wants {want}")
        for sel in cert.selections:
            vals = [cert.exponents[j - 1] for j in sel.positions]
            if len(set(vals)) != len(vals):
                msg = (f"slot {sel.factor} selects coinciding "
                       "characteristic values")
                if strict_values:
                    fail("V6", msg)
                else:
                    warnings.append(("V6", msg))

    if witness.fixed_point_exponent(p, cert.exponents, cert.selections) % N != 0:
        fail("V7", "weighted fixed-point exponent does not vanish mod N")

    expected_case = classify_profile(cert.profile, pr)
    if expected_case != cert.case:
        fail("V8", f"profile classifies as {expected_case}, certificate "
                   f"says {cert.case}")
    n_ord = params_mod.target_orders(pr, cert.case)
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
        _check_case_d(cert, fail)
    if psl_orders is not None:
        if not in_spectrum(psl_orders, cert.claimed_order):
            fail("V8", f"claimed order {cert.claimed_order} is not an order "
                       "of the projective group")
        if in_spectrum(psl_orders, cert.target_order):
            fail("V8", f"target order {cert.target_order} is already an "
                       "order of the projective group")

    return VerificationReport(ok=not failures, failures=tuple(failures),
                              warnings=tuple(warnings))


def brute_force_selections(params: GroupParams, profile, exponents,
                           theta_order: int, *, strict_values: bool = True):
    """Every selection tuple passing the V6 shape rules and V7, exhaustively.

    Enumeration order is the lexicographic product of per-slot position
    subsets, so results are reproducible.  m is capped: the search space
    grows like 15^m.
    """
    profile = tuple(profile)
    if len(profile) != params.m:
        raise ValueError("profile length must equal m")
    if params.m > 6:
        raise ValueError("exhaustive search is limited to m <= 6")
    N = theta_order
    pools = []
    for i, k in enumerate(profile):
        if k == 0:
            continue
        pool = []
        for positions in combinations((1, 2, 3, 4), k):
            vals = [exponents[j - 1] % N for j in positions]
            if strict_values and len(set(vals)) != len(vals):
                continue
            pool.append(Selection(i, positions))
        pools.append(pool)
    results = []
    for combo in product(*pools):
        if witness.fixed_point_exponent(params.p, exponents, combo) % N == 0:
            results.append(tuple(combo))
    return results
