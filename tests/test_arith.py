"""Integer-helper tests.

Expected values come from independent naive recomputations (loops and trial
division) rather than from the functions under test.
"""

import math
import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sl4witness import arith, params, spectrum


def naive_two_part(n):
    n = abs(n)
    v = 1
    while n % 2 == 0:
        n //= 2
        v *= 2
    return v


def stripped_value(a, n, eps):
    """a^n - eps^n with every prime shared with an earlier term of the
    sequence a^i - eps^i removed."""
    value = a**n - eps**n
    for i in range(1, n):
        earlier = a**i - eps**i
        g = math.gcd(value, earlier)
        while g > 1:
            value //= g
            g = math.gcd(value, earlier)
    return value


def gcd_strip_ppd(a, n, eps):
    """Oracle: the smallest prime of stripped_value, by sympy."""
    value = stripped_value(a, n, eps)
    if value == 1:
        return None
    return min(sympy.primefactors(value))


def assert_primitive(a, n, eps, r):
    """r is the least prime of the stripped value, and by the definition
    it divides a^n - eps^n but no earlier term of the sequence."""
    assert r == gcd_strip_ppd(a, n, eps), (a, n, eps, r)
    assert (a**n - eps**n) % r == 0, (a, n, eps, r)
    for i in range(1, n):
        assert (a**i - eps**i) % r != 0, (a, n, eps, r, i)


def test_two_part_known():
    assert arith.two_part(1) == 1
    assert arith.two_part(2) == 2
    assert arith.two_part(12) == 4
    assert arith.two_part(-40) == 8
    assert arith.two_part(1 << 64) == 1 << 64
    with pytest.raises(ValueError):
        arith.two_part(0)


def test_two_part_matches_naive():
    rnd = random.Random(1001)
    for _ in range(2000):
        n = rnd.randint(-(1 << 64), 1 << 64)
        if n == 0:
            continue
        assert arith.two_part(n) == naive_two_part(n)


def test_two_part_sum_behavior():
    # the property the case-D solvability argument leans on
    rnd = random.Random(1002)
    for _ in range(2000):
        a = rnd.randint(-(1 << 40), 1 << 40)
        b = rnd.randint(-(1 << 40), 1 << 40)
        if a == 0 or b == 0 or a + b == 0:
            continue
        va, vb = arith.two_part(a), arith.two_part(b)
        if va == vb:
            assert arith.two_part(a + b) > va
        elif va > vb:
            assert arith.two_part(a + b) == vb


def test_is_prime_small_exhaustive():
    # every n up to 2^12 past 2^20, where Miller-Rabin takes over
    limit = 2**20 + 2**12
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    got = bytearray(map(arith.is_prime, range(limit)))
    if got != sieve:
        n = next(n for n in range(limit) if got[n] != sieve[n])
        pytest.fail(f"is_prime({n}) is {bool(got[n])}")


def test_is_prime_known_values():
    assert arith.is_prime(2**31 - 1)
    assert arith.is_prime(2**61 - 1)
    assert arith.is_prime(18446744073709551557)  # largest prime below 2^64
    assert not arith.is_prime(561)               # Carmichael number
    assert not arith.is_prime(3215031751)        # strong pseudoprime base 2,3,5,7
    assert not arith.is_prime(2**64 - 1)
    with pytest.raises(ValueError):
        arith.is_prime(arith.SIZE_LIMIT + 1)


# the smallest strong pseudoprimes to the first k prime bases (OEIS
# A014233) for k = 3, 4, 8, 11, 12 and 13, and 4759123141 = 48781 * 97561,
# the smallest to the bases 2, 7 and 61 (Jaeschke 1993).  4759123141 and
# those for k = 11, 12 and 13 are the bounds past which each tier's bases
# stop being enough; those for k = 3 and 4 lie inside the 3-base tier and
# the one for k = 8 inside the 9-base tier, so a tier of the first 3, 4 or
# 8 primes would call them prime.  3215031751 (k = 4) bounded a 4-base
# first tier before the 3-base one.
STRONG_PSEUDOPRIMES = (25326001, 3215031751, 4759123141, 341550071728321,
                       3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981)


def test_is_prime_tier_edges():
    for n in STRONG_PSEUDOPRIMES:
        assert not arith.is_prime(n), n
    bounds = [bound for bound, _ in arith._MR_TIERS]
    assert bounds == [4759123141, 3825123056546413051,
                      arith._MR_PROVEN_BOUND]
    assert arith._MR_TIERS[0][1] == (2, 7, 61)
    values = list(range(3215031751 - 300, 3215031751 + 300))
    for bound in bounds:
        values += range(bound - 300, bound + 300)
    rnd = random.Random(4004)
    for low, high in zip([2**20] + bounds, bounds + [arith.SIZE_LIMIT]):
        for _ in range(100):
            n = rnd.randrange(low, high)
            values += [n, sympy.nextprime(n), sympy.prevprime(n)]
    for n in values:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_factorize_known():
    assert [(f.prime, f.exponent) for f in arith.factorize(720)] == [
        (2, 4), (3, 2), (5, 1)]
    assert [(f.prime, f.exponent) for f in arith.factorize(1 << 16)] == [(2, 16)]
    assert [(f.prime, f.exponent) for f in arith.factorize(97)] == [(97, 1)]
    # semiprime beyond the trial-division bound exercises the rho stage
    p, q = 1000003, 1000033
    assert [(f.prime, f.exponent) for f in arith.factorize(p * q)] == [
        (p, 1), (q, 1)]
    with pytest.raises(ValueError):
        arith.factorize(1)
    with pytest.raises(ValueError):
        arith.factorize(0)


def test_factorize_random_roundtrip():
    rnd = random.Random(2002)
    for _ in range(250):
        n = rnd.randint(2, 10**12)
        factors = arith.factorize(n)
        product = 1
        for f in factors:
            assert arith.is_prime(f.prime)
            assert f.exponent >= 1
            product *= f.prime**f.exponent
        assert product == n
        primes = [f.prime for f in factors]
        assert primes == sorted(set(primes))


def _sympy_factors(n):
    return sorted(sympy.factorint(n).items())


def test_factorize_around_trial_tiers():
    # factorize finds the primes below 2^10 by one gcd and treats a
    # cofactor below 2^20 as prime; these values straddle both edges and
    # the 2^16 bound up to which it used to trial-divide
    values = list(range(2**20 - 64, 2**20 + 64))
    edges = (1009, 1013, 1019, 1021, 1031, 1033, 1039,
             65497, 65519, 65521, 65537, 65539, 65543)
    for i, a in enumerate(edges):
        for b in edges[i:]:
            values += [a * b, 2 * a * b, 3**5 * a * b, a * b * 65521 * 65537]
    rnd = random.Random(1024)
    mid_primes = [q for q in (rnd.randrange(2**10, 2**16) for _ in range(400))
                  if sympy.isprime(q)]
    values += [q * q for q in mid_primes + [1031, 65521]]
    values += [q * q * 1021 for q in mid_primes[:20]]
    for n in values:
        got = [(f.prime, f.exponent) for f in arith.factorize(n)]
        assert got == _sympy_factors(n), n
        assert arith.prime_divisors(n) == sympy.primefactors(n), n


def test_factorize_prime_powers_and_low_product():
    values = [1031**3, 65521**3, 1031**12, 65537**7, 1031**2 * 65521**2,
              2**127, 3**80]
    # the product of all of _LOW_PRIMES is past SIZE_LIMIT, so it is
    # refused; runs of consecutive low primes with products within the
    # limit cover every one of them instead
    with pytest.raises(ValueError):
        arith.factorize(math.prod(arith._LOW_PRIMES))
    run = 1
    for p in arith._LOW_PRIMES:
        if run * p > arith.SIZE_LIMIT:
            values.append(run)
            run = 1
        run *= p
    values.append(run)
    for n in values:
        got = [(f.prime, f.exponent) for f in arith.factorize(n)]
        assert got == _sympy_factors(n), n


def test_factorize_balanced_semiprimes_promptly():
    # the hardest inputs for rho at a given size: two primes next to 2^k
    for k in (31, 32):
        p, q = sympy.prevprime(2**k), sympy.nextprime(2**k)
        start = time.perf_counter()
        got = [(f.prime, f.exponent) for f in arith.factorize(p * q)]
        elapsed = time.perf_counter() - start
        assert got == [(p, 1), (q, 1)]
        assert elapsed < 2.0, (k, elapsed)


MID_PRIMES = list(sympy.primerange(1031, 131072))


def test_mid_table_holds_the_primes_in_runs():
    # scanning a prime of 2^17 or more runs through the whole table
    with pytest.raises(ValueError, match="exhausted"):
        arith._least_mid_prime(131101)
    assert arith._mid_blocks == len(arith._MID_BOUNDS) - 1
    ends = arith._mid_starts[1:] + [arith._MID_BOUNDS[-1]]
    runs = []
    for start, end, product in zip(arith._mid_starts, ends,
                                   arith._mid_products):
        run = [q for q in MID_PRIMES if start <= q < end]
        assert run[0] == start and len(run) <= arith._MID_RUN
        assert math.prod(run) == product
        runs += run
    assert runs == MID_PRIMES


def test_factorize_mid_range_matches_sympy():
    # products of 2 or 3 primes from [2^10, 2^17) below 2^34, where the
    # mid-range table splits every part
    rnd = random.Random(3434)
    values = []
    while len(values) < 2500:
        n = math.prod(rnd.choices(MID_PRIMES, k=rnd.choice((2, 3))))
        if n < arith._MID_SPLIT_LIMIT:
            values.append(n)
    for n in values:
        got = [(f.prime, f.exponent) for f in arith.factorize(n)]
        assert got == _sympy_factors(n), n


def test_factorize_mid_range_edges():
    above = sympy.nextprime(2**17) * sympy.nextprime(2**17 + 2**10)
    assert 131063 * 131071 == 17178558473 < arith._MID_SPLIT_LIMIT < above
    for n, want in ((1031 * 1033, [(1031, 1), (1033, 1)]),
                    (1031**3, [(1031, 3)]),
                    (131063 * 131071, [(131063, 1), (131071, 1)]),
                    (1031 * 131071 * 3, [(3, 1), (1031, 1), (131071, 1)]),
                    (above, _sympy_factors(above))):
        assert [(f.prime, f.exponent) for f in arith.factorize(n)] == want
    # several of one run's primes: the gcd is their product, not a prime
    assert arith._least_mid_prime(1031 * 1033 * 1039) == 1031
    assert arith._least_mid_prime(1033 * 1039) == 1033


def test_rho_runs_only_above_the_mid_range(monkeypatch):
    calls = []
    rho = arith._brent_rho

    def counted(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    rnd = random.Random(3535)
    for _ in range(300):
        n = math.prod(rnd.choices(MID_PRIMES, k=2))
        third = rnd.choice(MID_PRIMES)
        if n * third < arith._MID_SPLIT_LIMIT:
            n *= third
        arith.factorize(n)
    arith.factorize(131063 * 131071)
    assert calls == []
    arith.factorize(1000003 * 1000033)
    assert calls == [1000003 * 1000033]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 2**32 - 1), min_size=1, max_size=4))
def test_factorize_matches_sympy_on_products_of_primes(seeds):
    n = 1
    for x in seeds:
        prime = sympy.prevprime(x + 1)
        if n * prime > 2**64:
            break
        n *= prime
    got = [(f.prime, f.exponent) for f in arith.factorize(n)]
    assert got == _sympy_factors(n), n
    assert arith.prime_divisors(n) == sympy.primefactors(n), n


def test_prime_divisors():
    assert arith.prime_divisors(360) == [2, 3, 5]
    assert arith.prime_divisors(41) == [41]
    with pytest.raises(ValueError):
        arith.prime_divisors(1)


def test_primitive_prime_divisor_known():
    assert arith.primitive_prime_divisor(3, 4, 1) == 5
    assert arith.primitive_prime_divisor(9, 2, 1) == 5
    assert arith.primitive_prime_divisor(9, 4, 1) == 41
    assert arith.primitive_prime_divisor(3, 3, 1) == 13
    assert arith.primitive_prime_divisor(9, 3, 1) == 7
    assert arith.primitive_prime_divisor(3, 4, -1) == 5
    assert arith.primitive_prime_divisor(3, 3, -1) == 7
    # classical exception patterns
    assert arith.primitive_prime_divisor(2, 6, 1) is None
    assert arith.primitive_prime_divisor(7, 2, 1) is None
    assert arith.primitive_prime_divisor(3, 2, -1) is None
    assert arith.primitive_prime_divisor(2, 3, -1) is None


def test_power_at_most():
    limit = arith.SIZE_LIMIT
    assert arith.power_at_most(3, 4, 81) == 81
    assert arith.power_at_most(3, 4, 80) is None
    assert arith.power_at_most(2, 128, limit) == limit
    assert arith.power_at_most(2, 129, limit) is None
    assert arith.power_at_most(5, 0, 1) == 1
    assert arith.power_at_most(0, 7, 1) == 0
    assert arith.power_at_most(1, 10**18, 1) == 1
    assert arith.power_at_most(3, -1, limit) is None
    # refused by the bit-length bound, before a**n is computed
    start = time.perf_counter()
    assert arith.power_at_most(3, 10**18, limit) is None
    assert arith.power_at_most(10**1000, 10**4, limit) is None
    assert time.perf_counter() - start < 0.1
    for a in range(2, 40):
        for n in range(0, 100):
            for bound in (a**n - 1, a**n, limit):
                expect = a**n if a**n <= bound else None
                assert arith.power_at_most(a, n, bound) == expect


def test_primitive_prime_divisor_validation():
    with pytest.raises(ValueError):
        arith.primitive_prime_divisor(1, 2, 1)
    with pytest.raises(ValueError):
        arith.primitive_prime_divisor(3, 1, 1)
    with pytest.raises(ValueError):
        arith.primitive_prime_divisor(3, 2, 0)
    with pytest.raises(ValueError):
        arith.primitive_prime_divisor(2, 200, 1)


def test_primitive_prime_divisor_matches_oracle_small():
    for eps in (1, -1):
        for a in range(2, 13):
            for n in range(2, 9):
                assert arith.primitive_prime_divisor(a, n, eps) == \
                    gcd_strip_ppd(a, n, eps), (a, n, eps)


def test_primitive_prime_divisor_strip_by_prime_divisors_of_n(wide_inputs):
    # the search strips only a^(n/l) - eps^(n/l) for each prime l | n; the
    # oracle strips every earlier term.  n with two or three distinct
    # primes, seeded a up to 2^16 with a^n <= SIZE_LIMIT, and every search
    # that a wide pool's field can ask for (n = 4, 3, 2 for cases A, B, D)
    rnd = random.Random(3303)
    cases = set()
    for n in (6, 10, 12, 15, 30):
        top = min(1 << 16, math.floor(arith.SIZE_LIMIT ** (1 / n)))
        while arith.power_at_most(top, n, arith.SIZE_LIMIT) is None:
            top -= 1
        for a in rnd.sample(range(2, top + 1), min(40, top - 1)) + [top]:
            cases.update((a, n, eps) for eps in (1, -1))
    cases.update((pr.q, n, pr.epsilon)
                 for pr, _ in wide_inputs for n in (2, 3, 4))
    for a, n, eps in sorted(cases):
        assert arith.primitive_prime_divisor(a, n, eps) == \
            gcd_strip_ppd(a, n, eps), (a, n, eps)


def test_searches_up_to_q_cap_stop_below_the_last_table_block(
        monkeypatch, wide_inputs):
    # a composite left at q <= Q_CAP is below (2^16 + 1)^2, so its least
    # prime is below 2^16 and the block [2^16, 2^17) is never sieved
    monkeypatch.setattr(arith, "_mid_starts", [])
    monkeypatch.setattr(arith, "_mid_products", [])
    monkeypatch.setattr(arith, "_mid_blocks", 0)
    assert arith._MID_BOUNDS[2] == 1 << 16
    for pr, profile in wide_inputs:
        params.target_orders.__wrapped__(
            pr, params.classify_profile(profile, pr))
    spectrum._omega_sets.cache_clear()
    for q in (65521, 65519):
        for eps in (1, -1):
            pr = params.derive_from_q(eps, q)
            for group in ("SL", "PSL"):
                assert spectrum.omega(pr, group)
    spectrum._omega_sets.cache_clear()
    assert 1 <= arith._mid_blocks <= 2


def test_primitive_prime_divisor_at_low_prime_edge():
    # 1021 is the last prime the gcd with _LOW_PRODUCT finds and 1031 the
    # first one factorize must find; each is the least of two primes here
    cases = {(3715, 3, 1): 1021, (3716, 3, -1): 1021, (2416, 4, 1): 1021,
             (1031 * 1033 - 1, 2, 1): 1031}
    for (a, n, eps), r in cases.items():
        value = stripped_value(a, n, eps)
        assert value > r and value % r == 0, (a, n, eps)
        assert arith.primitive_prime_divisor(a, n, eps) == r
        assert_primitive(a, n, eps, r)


def test_primitive_prime_divisor_rho_path():
    # stripped values with no prime below 2^10 that are not prime: the
    # least prime factor comes from splitting them, which rho did before
    # the mid-range table took every part below 2^34
    cases = {(60899, 4, -1): 22469, (52501, 4, 1): 10253,
             (52501, 4, -1): 10253, (34649, 4, 1): 8089}
    for (a, n, eps), r in cases.items():
        value = stripped_value(a, n, eps)
        assert math.gcd(value, arith._LOW_PRODUCT) == 1
        assert not sympy.isprime(value)
        assert arith.primitive_prime_divisor(a, n, eps) == r
        assert_primitive(a, n, eps, r)


def test_primitive_prime_divisor_large_random_q():
    rnd = random.Random(6006)
    qs = [sympy.nextprime(rnd.randrange(2**16, 2**32 - 2**10))
          for _ in range(50)]
    for q in qs:
        for n in (2, 3, 4):
            for eps in (1, -1):
                r = arith.primitive_prime_divisor(q, n, eps)
                assert_primitive(q, n, eps, r)


def test_factorize_work_is_bounded(monkeypatch):
    # a split that needs more rho squarings than the budget is refused;
    # this balanced semiprime needs about 2^17 squarings
    n = sympy.prevprime(2**32) * sympy.nextprime(2**32)
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 14)
    with pytest.raises(ValueError, match="rho"):
        arith.factorize(n)
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 18)
    assert len(arith.factorize(n)) == 2

