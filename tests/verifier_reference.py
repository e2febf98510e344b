"""The verifier and profile checks as they were before the closed forms.

verifier.verify takes V4 and V5 as one gcd each, checks selection shapes
by one lookup and re-derives V7 and the case-D data itself.  This module
keeps the earlier, direct version of every check as the reference those
forms are tested against: V4 as the lcm of the four exponents' orders, V5
as the lcm over all six pairwise differences, the profile and selection
shapes element by element, and V7 and case D through the earlier
constructor's helpers in witness_reference.  Reports and
MalformedCertificate messages must agree.

It also holds two helpers only tests use: failed_checks() lists a report's
failed check labels, and brute_force_selections() is the exhaustive search
that the constructor's choice of selections is checked against.
"""

import math
from itertools import combinations, product

import witness_reference
from sl4witness import arith, params as params_mod
from sl4witness.params import (ALL_CASES, CASE_A, CASE_B, CASE_C, CASE_D,
                               GroupParams)
from sl4witness.verifier import (CHECK_LABELS, MalformedCertificate,
                                 VerificationReport)
from sl4witness.witness import Selection


def check_profile(profile, m):
    if len(profile) != m:
        raise ValueError(f"profile length {len(profile)} != m = {m}")
    if any(not isinstance(k, int) or isinstance(k, bool)
           or k not in (0, 1, 2, 3) for k in profile):
        raise ValueError("profile entries must lie in {0, 1, 2, 3}")


def classify_profile(profile, params):
    check_profile(profile, params.m)
    if all(k in (0, 2) for k in profile):
        return CASE_A
    if all(k != 2 for k in profile):
        return CASE_B
    if params.q % 4 == (-params.epsilon) % 4:
        return CASE_C
    return CASE_D


def element_order(N, exponents):
    """V4's order: the lcm of the orders N / gcd(N, e_j)."""
    order = 1
    for e in exponents:
        order = math.lcm(order, N // math.gcd(N, e))
    return order


def scalar_period(N, exponents):
    """V5's k_s: the lcm over u < v of the orders of e_u - e_v."""
    k_s = 1
    for u, v in combinations(exponents, 2):
        k_s = math.lcm(k_s, N // math.gcd(N, u - v))
    return k_s


def in_spectrum(orders, x):
    """Membership by a scan over every attained order."""
    if x < 1:
        raise ValueError("order must be positive")
    return any(o % x == 0 for o in orders)


def _structural_check(cert):
    pr = cert.params
    if not isinstance(pr, GroupParams):
        raise MalformedCertificate("params must be a GroupParams record")
    if (any(not isinstance(x, int) or isinstance(x, bool)
            for x in (pr.p, pr.m, pr.q))
            or arith.power_at_most(pr.p, pr.m, arith.SIZE_LIMIT) != pr.q):
        raise MalformedCertificate("params: q != p^m")
    if (not isinstance(pr.epsilon, int) or isinstance(pr.epsilon, bool)
            or pr.epsilon not in (1, -1)):
        raise MalformedCertificate("params: epsilon must be +1 or -1")
    if pr.m < 1:
        raise MalformedCertificate("params: m must be >= 1")
    if pr.p % 2 == 0:
        raise MalformedCertificate("params: p must be odd")
    if not arith.is_prime(pr.p):
        raise MalformedCertificate(f"{pr.p} is not prime")
    if not isinstance(cert.profile, (tuple, list)):
        raise MalformedCertificate("profile must be a list or tuple")
    try:
        check_profile(cert.profile, pr.m)
    except ValueError as exc:
        raise MalformedCertificate(str(exc)) from None
    if cert.case not in ALL_CASES:
        raise MalformedCertificate(f"unknown case tag {cert.case!r}")
    N = cert.theta_order
    if not isinstance(N, int) or N < 2:
        raise MalformedCertificate("theta_order must be an integer >= 2")
    if not isinstance(cert.exponents, (tuple, list)):
        raise MalformedCertificate("exponents must be a list or tuple")
    if len(cert.exponents) != 4:
        raise MalformedCertificate("exactly four exponents are required")
    for e in cert.exponents:
        if (not isinstance(e, int) or isinstance(e, bool)
                or not 0 <= e < N):
            raise MalformedCertificate(
                "exponents must be integers reduced mod theta_order")
    for order in (cert.claimed_order, cert.target_order):
        if not isinstance(order, int) or isinstance(order, bool):
            raise MalformedCertificate("orders must be integers")
    if cert.claimed_order < 1 or cert.target_order < 1:
        raise MalformedCertificate("orders must be positive")
    if not isinstance(cert.selections, (tuple, list)):
        raise MalformedCertificate("selections must be a list or tuple")
    for sel in cert.selections:
        if not (hasattr(sel, "factor") and hasattr(sel, "positions")):
            raise MalformedCertificate("selections must be Selection records")
        if not isinstance(sel.factor, int) or isinstance(sel.factor, bool):
            raise MalformedCertificate("selection factor must be an integer")
        if not 0 <= sel.factor < pr.m:
            raise MalformedCertificate(
                f"selection factor {sel.factor} out of range")
        if not sel.positions or any(
                not isinstance(j, int) or isinstance(j, bool)
                or j not in (1, 2, 3, 4) for j in sel.positions):
            raise MalformedCertificate(
                "selection positions must be integers in 1..4")
        if tuple(sorted(set(sel.positions))) != sel.positions:
            raise MalformedCertificate(
                "selection positions must be strictly increasing")
    if (cert.case == CASE_D) != (cert.case_d is not None):
        raise MalformedCertificate(
            "case_d data must be present exactly for case D_QcongEps")
    if cert.case_d is not None:
        fields = ("r", "t", "a", "b", "coeff_a", "coeff_rb")
        if not all(hasattr(cert.case_d, f) for f in fields):
            raise MalformedCertificate(
                "case_d must be a CaseDInternals record")
        for f in fields:
            value = getattr(cert.case_d, f)
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedCertificate("case_d values must be integers")


def _check_case_d(cert, fail):
    pr = cert.params
    eps, q = pr.epsilon, pr.q
    cd = cert.case_d
    s2 = arith.two_part(q - eps)
    n_ord = params_mod.target_orders(pr, CASE_D)
    if n_ord is None or cd.r != n_ord // s2:
        fail("V8", "case-D odd prime r does not match the parameters")
        return
    r = cd.r
    if cd.t != n_ord or cd.t != cert.theta_order:
        fail("V8", f"case-D modulus t = {cd.t} is inconsistent")
        return
    try:
        A, B = witness_reference.compute_AB(cert.profile, pr,
                                            cert.selections)
    except ValueError:
        fail("V8", "selections do not have case-D shapes")
        return
    if (cd.coeff_a, cd.coeff_rb) != (A, B):
        fail("V8", "case-D coefficients do not reproduce from the selections")
    if (witness_reference.case_d_exponents(cd.a, cd.b, r, cd.t, eps, q)
            != tuple(cert.exponents)):
        fail("V8", "case-D exponents do not reproduce from (a, b)")
    if (cd.a * A + r * cd.b * B) % s2 != 0:
        fail("V8", "case-D congruence a*A + r*b*B != 0 mod (q-eps)_2")
    if (cd.a + cd.b) % 2 != 1:
        fail("V8", "case-D parity: a + b must be odd")
    if math.gcd(cd.a, r) != 1:
        fail("V8", "case-D: a must be coprime to r")


def verify(cert, *, strict_values=True, psl_orders=None):
    _structural_check(cert)
    pr = cert.params
    eps, p, q = pr.epsilon, pr.p, pr.q
    N = cert.theta_order
    failures = []
    warnings = []

    def fail(label, msg):
        failures.append((label, msg))

    total = sum(cert.exponents)
    if total % N != 0:
        fail("V1", f"exponent sum {total} is not 0 mod {N}")

    if (sorted((eps * q * e) % N for e in cert.exponents)
            != sorted(cert.exponents)):
        fail("V2", "exponent multiset is not stable under e -> eps*q*e")

    if math.gcd(N, p) != 1:
        fail("V3", f"theta order {N} shares a factor with p = {p}")

    order = element_order(N, cert.exponents)
    if order != cert.claimed_order:
        fail("V4", f"element order is {order}, certificate claims "
                   f"{cert.claimed_order}")

    k_s = scalar_period(N, cert.exponents)
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

    if (witness_reference.fixed_point_exponent(p, cert.exponents,
                                               cert.selections) % N != 0):
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


def failed_checks(report):
    """The labels of the checks a report failed, in check order."""
    return tuple(l for l in CHECK_LABELS
                 if any(label == l for label, _ in report.failures))


def brute_force_selections(params, profile, exponents, theta_order, *,
                           strict_values=True):
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
        if (witness_reference.fixed_point_exponent(params.p, exponents, combo)
                % N == 0):
            results.append(tuple(combo))
    return results
