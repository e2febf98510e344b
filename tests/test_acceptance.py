"""Acceptance gate.

Each test below covers one advertised guarantee of the package and prints a
single machine-readable PASS/FAIL line (written straight to the real stdout
so it survives pytest's capture). Runtime budgets are asserted alongside the
functional checks.
"""

import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest
import sympy

from sl4witness import (arith, cli, ffield, params, spectrum, verifier,
                        witness)
from spectrum_reference import torus_exponents
from verifier_reference import brute_force_selections, failed_checks

ROOT = Path(__file__).resolve().parents[1]
GRID_PRIMES = (3, 5, 7, 11, 13)
GRID_DEGREES = (1, 2, 3)


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, pushed past pytest's capture."""
    def emit(num, slug, ok, detail):
        line = "acceptance %02d %s: %s (%s)" % (
            num, slug, "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line, flush=True)
        assert ok, "%s: %s" % (slug, detail)
    return emit


@pytest.fixture(scope="module")
def sweep():
    """All certificates over the full grid, plus the time it took to both
    construct and verify them."""
    start = time.perf_counter()
    certs = []
    failures = 0
    for eps in (1, -1):
        for p in GRID_PRIMES:
            for m in GRID_DEGREES:
                pr = params.derive(eps, p, m)
                for profile in itertools.product((0, 1, 2, 3), repeat=m):
                    cert = witness.construct(pr, profile)
                    if not verifier.verify(cert).ok:
                        failures += 1
                    certs.append(cert)
    elapsed = time.perf_counter() - start
    return certs, failures, elapsed


def test_01_construction_grid(sweep, report):
    """Every profile for every grid parameter constructs and verifies."""
    certs, failures, elapsed = sweep
    budget = 10.0
    ok = failures == 0 and len(certs) == 840 and elapsed < budget
    report(1, "construction-grid", ok,
            "%d certificates, %d failures, %.2fs, budget %.0fs"
            % (len(certs), failures, elapsed, budget))


def test_02_spectrum_desk_check(report):
    """For every odd prime power q <= Q_CAP, both signs, every applicable
    claimed order divides a maximal order of the projective group while p
    times it divides none."""
    budget = 300.0
    start = time.perf_counter()
    checked = 0
    groups = 0
    bad = []
    for p, m in _full_range_fields():
        for eps in (1, -1):
            groups += 1
            pr = params.derive(eps, p, m)
            maxima = spectrum.omega_maxima(pr, group="PSL")
            for case in params.ALL_CASES:
                order = params.target_orders(pr, case)
                if order is None:
                    continue
                checked += 1
                if not arith.member(maxima, order):
                    bad.append((eps, pr.q, case, "order missing"))
                if arith.member(maxima, p * order):
                    bad.append((eps, pr.q, case, "target present"))
    elapsed = time.perf_counter() - start
    ok = (not bad and groups == 13238 and checked == 46332
          and elapsed < budget)
    report(2, "spectrum-desk-check", ok,
            "%d case orders over %d groups, %d anomalies, %.1fs, budget %.0fs"
            % (checked, groups, len(bad), elapsed, budget))
    assert not bad, bad


def test_03_randomized_order_sampling(report):
    """Orders of uniformly sampled determinant-one matrices always land in
    the exact tables, before and after factoring out scalars."""
    budget = 60.0
    start = time.perf_counter()
    escapes = 0
    total = 0
    for q, p in ((3, 3), (5, 5)):
        pr = params.derive(1, p, 1)
        full_tab = set(spectrum.omega(pr, "SL"))
        proj_tab = set(spectrum.omega(pr, "PSL"))
        full, proj = ffield.sample_orders(q, 100_000, seed=20260814)
        total += len(full)
        escapes += sum(1 for o in full if o not in full_tab)
        escapes += sum(1 for o in proj if o not in proj_tab)
    elapsed = time.perf_counter() - start
    ok = escapes == 0 and elapsed < budget
    report(3, "randomized-order-sampling", ok,
            "%d samples, %d escapes, %.1fs, budget %.0fs"
            % (total, escapes, elapsed, budget))


def test_04_primitive_divisor_cross_check(report):
    """The primitive-divisor routine agrees with a gcd-stripping oracle on
    every base up to 50 and exponent up to 12."""
    budget = 5.0
    start = time.perf_counter()
    mismatches = 0
    cases = 0
    for eps in (1, -1):
        for a in range(2, 51):
            for n in range(2, 13):
                cases += 1
                got = arith.primitive_prime_divisor(a, n, eps)
                value = a**n - eps**n
                for i in range(1, n):
                    earlier = a**i - eps**i
                    g = math.gcd(value, earlier)
                    while g > 1:
                        value //= g
                        g = math.gcd(value, earlier)
                want = None if value == 1 else min(sympy.primefactors(value))
                if got != want:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < budget
    report(4, "primitive-divisor-cross-check", ok,
            "%d cases, %d mismatches, %.1fs, budget %.0fs"
            % (cases, mismatches, elapsed, budget))


def test_05_two_adic_sum_property(report):
    """The 2-part of a sum behaves as the balancing step relies on: equal
    2-parts strictly grow, unequal ones pass the smaller through."""
    rnd = random.Random(20260814)
    violations = 0
    trials = 0
    while trials < 10_000:
        a = rnd.randint(1, 2**64) * rnd.choice((1, -1))
        b = rnd.randint(1, 2**64) * rnd.choice((1, -1))
        if a + b == 0:
            continue
        trials += 1
        ta, tb, ts = (arith.two_part(x) for x in (a, b, a + b))
        if ta == tb:
            if ts <= ta:
                violations += 1
        elif ts != min(ta, tb):
            violations += 1
    ok = violations == 0
    report(5, "two-adic-sum-property", ok,
            "%d pairs, %d violations" % (trials, violations))


def test_06_tamper_detection(sweep, report):
    """Four independent tampers on a spread of real certificates each trip
    the check aimed at that field."""
    certs = [c for c in sweep[0] if c.selections]
    sample = certs[::max(1, len(certs) // 100)][:100]
    missed = 0
    for cert in sample:
        n = cert.theta_order
        exps = ((cert.exponents[0] + 1) % n,) + cert.exponents[1:]
        bad = cert._replace(exponents=exps)
        if "V1" not in failed_checks(verifier.verify(bad)):
            missed += 1

        bad = cert._replace(claimed_order=cert.claimed_order + 1)
        if "V4" not in failed_checks(verifier.verify(bad)):
            missed += 1

        bad = cert._replace(theta_order=n + 1)
        if "V1" not in failed_checks(verifier.verify(bad)):
            missed += 1

        # swap the first selection for the first same-size subset whose
        # selected values sum differently; one always exists because the
        # four exponents are pairwise distinct
        first = cert.selections[0]
        old = sum(cert.exponents[j - 1] for j in first.positions) % n
        for alt in itertools.combinations((1, 2, 3, 4), len(first.positions)):
            if alt == first.positions:
                continue
            if sum(cert.exponents[j - 1] for j in alt) % n != old:
                break
        else:
            missed += 1
            continue
        sels = (witness.Selection(first.factor, alt),) + cert.selections[1:]
        bad = cert._replace(selections=sels)
        if "V7" not in failed_checks(verifier.verify(bad)):
            missed += 1
    ok = missed == 0 and len(sample) == 100
    report(6, "tamper-detection", ok,
            "%d certificates x 4 tampers, %d undetected"
            % (len(sample), missed))


def test_07_matrix_realization(sweep, report):
    """Every certificate whose field F_{p^(12m)} fits the size limit
    realizes as a diagonal matrix of exactly the claimed order, and a spread
    of them, with every exponent multiplied by a prime dividing N, is
    rejected because the explicit order drops."""
    budget = 120.0
    small = [c for c in sweep[0]
             if c.params.p ** (12 * c.params.m) <= arith.SIZE_LIMIT]
    ffield.element_of_order.cache_clear()
    start = time.perf_counter()
    problems = 0
    for cert in small:
        try:
            mat = ffield.realize(cert)
        except ffield.RealizationError:
            problems += 1
            continue
        if mat.field.order != cert.params.p ** (12 * cert.params.m):
            problems += 1
    tampered = small[::40]
    for cert in tampered:
        n = cert.theta_order
        ell = arith.prime_divisors(n)[0]
        bad = cert._replace(
            exponents=tuple(e * ell % n for e in cert.exponents))
        try:
            ffield.realize(bad)
        except ffield.RealizationError:
            continue
        problems += 1
    elapsed = time.perf_counter() - start
    ok = problems == 0 and len(small) == 712 and elapsed < budget
    report(7, "matrix-realization", ok,
            "%d matrices, %d tampered, %d problems, %.1fs, budget %.0fs"
            % (len(small), len(tampered), problems, elapsed, budget))


def test_08_selection_brute_force(sweep, report):
    """Exhaustive search over position subsets always rediscovers the
    constructor's choice."""
    budget = 30.0
    start = time.perf_counter()
    missing = 0
    for cert in sweep[0]:
        found = brute_force_selections(
            cert.params, cert.profile, cert.exponents, cert.theta_order)
        if cert.selections not in found:
            missing += 1
    elapsed = time.perf_counter() - start
    ok = missing == 0 and elapsed < budget
    report(8, "selection-brute-force", ok,
            "%d certificates, %d missing, %.1fs, budget %.0fs"
            % (len(sweep[0]), missing, elapsed, budget))


def _full_range_fields():
    """(p, m) for every odd prime power q = p^m <= Q_CAP, q ascending."""
    return [(p, m) for _, p, m in sorted(
        (p**m, p, m) for p in sympy.primerange(3, params.Q_CAP + 1)
        for m in range(1, params.Q_CAP.bit_length())
        if p**m <= params.Q_CAP)]


# sha256 of the target-order lines below, recorded before factorize lost
# its trial division by the primes below 2^16
TARGET_ORDERS_SHA256 = (
    "90afae2dcc093e935600b4551523fca015db000ddcfd70a96089a2fd3dcd65cb")
# the name each case's order had in the recorded lines
ORDER_KINDS = ("R4", "R3", "TwoPartQ2M1", "R2TimesTwoPart")


def test_09_full_range_target_orders(report):
    """target_orders over every group with q <= Q_CAP, both signs, gives
    the recorded witness orders."""
    budget = 30.0
    fields = _full_range_fields()
    params.derive.cache_clear()
    params.target_orders.cache_clear()
    start = time.perf_counter()
    lines = []
    for p, m in fields:
        for eps in (1, -1):
            pr = params.derive(eps, p, m)
            for case, kind in zip(params.ALL_CASES, ORDER_KINDS):
                order = params.target_orders(pr, case)
                lines.append("%d %d %d %s %s %d" % (
                    eps, p, m, kind, order, order is not None))
    elapsed = time.perf_counter() - start
    params.derive.cache_clear()
    params.target_orders.cache_clear()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    groups = 2 * len(fields)
    ok = (groups == 13238 and digest == TARGET_ORDERS_SHA256
          and elapsed < budget)
    report(9, "full-range-target-orders", ok,
            "%d groups, digest %s, %.1fs, budget %.0fs"
            % (groups, "matches" if digest == TARGET_ORDERS_SHA256
               else "differs", elapsed, budget))


def test_10_full_range_torus_exponents(report):
    """The spectrum oracle's closed-form exponents, exp K and exp(K S/S)
    for each of the eleven torus types, agree with the kernel reduction of
    spectrum_reference on every group with q <= Q_CAP, both signs."""
    budget = 30.0
    fields = _full_range_fields()
    params.derive.cache_clear()
    start = time.perf_counter()
    groups = 0
    mismatches = []
    for p, m in fields:
        for eps in (1, -1):
            groups += 1
            pr = params.derive(eps, p, m)
            if spectrum._torus_exponents(pr) != torus_exponents(pr):
                mismatches.append((eps, p, m))
    elapsed = time.perf_counter() - start
    params.derive.cache_clear()
    ok = groups == 13238 and not mismatches and elapsed < budget
    report(10, "full-range-torus-exponents", ok,
            "%d groups x %d types, %d mismatches, %.1fs, budget %.0fs"
            % (groups, len(spectrum._TYPES), len(mismatches), elapsed,
               budget))


def test_11_all_profiles_at_q_3_8(report):
    """All 4^8 profiles of SL4(3^8) and of SU4(3^8) construct and pass
    verify against the maximal orders of the projective spectrum, so each
    claimed order is an order of PSL4(3^8) or PSU4(3^8) and p times it is
    not.  Construct and verify are timed apart, a chunk of profiles at a
    time."""
    budget = 30.0
    start = time.perf_counter()
    count = failures = case_c = 0
    construct_s = verify_s = 0.0
    profiles = list(itertools.product((0, 1, 2, 3), repeat=8))
    for eps in (1, -1):
        pr = params.derive(eps, 3, 8)
        psl = spectrum.omega_maxima(pr, group="PSL")
        for lo in range(0, len(profiles), 4096):
            chunk = profiles[lo:lo + 4096]
            t0 = time.perf_counter()
            certs = [witness.construct(pr, profile) for profile in chunk]
            t1 = time.perf_counter()
            failures += sum(not verifier.verify(cert, psl_orders=psl).ok
                            for cert in certs)
            t2 = time.perf_counter()
            construct_s += t1 - t0
            verify_s += t2 - t1
            count += len(certs)
            case_c += sum(cert.case == params.CASE_C for cert in certs)
    elapsed = time.perf_counter() - start
    ok = (count == 2 * 4**8 and case_c == 58720 and failures == 0
          and elapsed < budget)
    report(11, "all-profiles-q-3-8", ok,
           "%d certificates (SL and SU, %d case C), %d failures, construct "
           "%.1f us, verify %.1f us per certificate, %.1fs, budget %.0fs"
           % (count, case_c, failures, 1e6 * construct_s / count,
              1e6 * verify_s / count, elapsed, budget))


def test_12_wide_pool_wire_round_trip(report):
    """All 2,048 requests of the recorded wide pool go through the path
    of `construct --out` then `verify FILE`: construct, the document and
    its canonical JSON, json.loads, the document reader and verify, each
    with every certificate passing."""
    budget = 2.0
    pool = ROOT / "bench" / "golden" / "wide.txt"
    requests = [ln.split() for ln in pool.read_text().splitlines()
                if ln.strip() and not ln.startswith("#")]
    params.derive.cache_clear()
    params.target_orders.cache_clear()
    verifier._order_checks.cache_clear()
    start = time.perf_counter()
    failures = 0
    for sign, p, m, profile, _digest in requests:
        pr = params.derive(1 if sign == "+" else -1, int(p), int(m))
        cert = witness.construct(pr, tuple(map(int, profile.split(","))))
        text = cli.canonical_json(cli.certificate_to_document(cert))
        back = cli.certificate_from_document(json.loads(text))
        failures += back != cert or not verifier.verify(back).ok
    elapsed = time.perf_counter() - start
    params.derive.cache_clear()
    params.target_orders.cache_clear()
    verifier._order_checks.cache_clear()
    ok = len(requests) == 2048 and failures == 0 and elapsed < budget
    report(12, "wide-pool-wire-round-trip", ok,
           "%d requests, %d failures, %.1f us per request, %.2fs, budget "
           "%.0fs" % (len(requests), failures, 1e6 * elapsed / len(requests),
                      elapsed, budget))
