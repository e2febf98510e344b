"""Exact integer helpers shared by the whole package.

Everything here is pure and deterministic: 2-adic parts, primality (a
lookup below 2^10, one gcd with the product of those primes below 2^20,
Miller-Rabin with proven bases above), certified factorization (the
primes below 2^10 found by one gcd, then Brent's rho on a fixed parameter
schedule and work budget), primitive prime divisors of a^n - (eps*1)^n,
and membership in a divisor-closed order set.  No randomness, so repeated
runs factor the same input the same way.
"""

import math
from bisect import bisect_left
from itertools import compress, count
from typing import NamedTuple

# Inputs above this size are refused rather than risking unbounded work.
SIZE_LIMIT = 1 << 128
# SIZE_LIMIT's decimal length; longer decimal strings are refused before
# int() parses them (Python itself refuses past 4300 digits).
MAX_DIGITS = len(str(SIZE_LIMIT))

_LOW_TRIAL_LIMIT = 1 << 10

# Rho squarings per split, ~1 s: splitting off p takes about sqrt(p), so a
# balanced 2^64 semiprime needs ~2^17, and a composite with no prime below
# about 2^38 is refused.
_RHO_BUDGET = 1 << 21

# Miller-Rabin with the first k primes as bases is a proven-deterministic
# primality test below the smallest strong pseudoprime to all of them, so
# is_prime uses the shortest prefix of _MR_BASES proven for its input:
#
#   n < 3_215_031_751                      first 4 primes   Jaeschke 1993
#   n < 3_825_123_056_546_413_051          first 9 primes   Sorenson and
#   n < 3_317_044_064_679_887_385_961_981  all 13 primes    Webster 2017
#
# The primitive prime divisor targets and spectrum supports at
# q <= params.Q_CAP are below 2^34, so they take the first two tiers.
# Larger inputs (up to SIZE_LIMIT) add the extended base list; no
# counterexample is known for that range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_TIERS = (
    (3215031751, _MR_BASES[:4]),
    (3825123056546413051, _MR_BASES[:9]),
    (_MR_PROVEN_BOUND, _MR_BASES),
)


class PrimePower(NamedTuple):
    prime: int
    exponent: int


def two_part(a: int) -> int:
    """Largest power of 2 dividing a; the sign of a is ignored."""
    if a == 0:
        raise ValueError("2-part of 0 is undefined")
    a = abs(a)
    return a & -a


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, ascending."""
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


_LOW_PRIMES = _primes_below(_LOW_TRIAL_LIMIT)
_LOW_PRODUCT = math.prod(_LOW_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below 2^10 n is looked up among the primes there; below 2^20 it is
    prime exactly when one gcd with their product is 1, as a composite
    has a prime factor below its square root; above, Miller-Rabin with the
    proven bases for its size (see _MR_BASES note).
    """
    if n < _LOW_TRIAL_LIMIT:
        return n in _LOW_PRIMES
    if n < _LOW_TRIAL_LIMIT * _LOW_TRIAL_LIMIT:
        return math.gcd(n, _LOW_PRODUCT) == 1
    if n > SIZE_LIMIT:
        raise ValueError(f"{n} exceeds supported size {SIZE_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    else:
        bases = _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, deterministic schedule.

    Brent's variant of Pollard rho; the polynomial constant walks 1, 2, 3,
    ... so a given n always splits the same way, or raises ValueError.
    """
    budget = _RHO_BUDGET
    for c in count(1):
        y, r, q_acc, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            budget -= 2 * r  # r squarings move x, at most r more search
            if budget < 0:
                raise ValueError(f"rho did not split {n} within budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q_acc = q_acc * abs(x - y) % n
                g = math.gcd(q_acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_exponents(n: int) -> dict[int, int]:
    """The prime -> exponent map of n >= 2, in no particular order.

    The primes below 2^10 are found by one gcd with their product and
    divided out.  Brent's rho splits the cofactor until is_prime holds
    for every part.  So each factor is certified prime and the result can
    be trusted by downstream order/divisor computations.
    """
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    if n > SIZE_LIMIT:
        raise ValueError(f"{n} exceeds supported size {SIZE_LIMIT}")
    found: dict[int, int] = {}
    # g is the product of the distinct primes below _LOW_TRIAL_LIMIT that
    # divide n; once p^2 > g, what is left of g is 1 or one prime
    g = math.gcd(n, _LOW_PRODUCT)
    low = []
    for p in _LOW_PRIMES:
        if p * p > g:
            if g > 1:
                low.append(g)
            break
        if g % p == 0:
            low.append(p)
            g //= p
    for p in low:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        found[p] = e
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return found


def factorize(n: int) -> list[PrimePower]:
    """Full prime factorization of n >= 2, ascending by prime; ValueError
    when a rho split needs over _RHO_BUDGET = 2^21 squarings (~1 s)."""
    return [PrimePower(p, e) for p, e in sorted(_prime_exponents(n).items())]


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return sorted(_prime_exponents(n))


def primitive_prime_divisor(a: int, n: int, eps: int) -> int | None:
    """Smallest prime dividing a^n - (eps*1)^n but no a^i - (eps*1)^i, i < n.

    None when there is none (the Bang/Zsigmondy exceptions); eps is +1/-1.
    Dividing out every prime shared with an earlier term leaves exactly the
    primitive primes, as a primitive prime divides no earlier term, so the
    answer is the least prime factor of what is left: one gcd finds it
    below 2^10, factorize above (ValueError past its rho budget).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if a < 2 or n < 2:
        raise ValueError("need a >= 2 and n >= 2")
    # a**n has at least n * (a.bit_length() - 1) + 1 bits, so a huge power
    # is refused by that bound before it is computed
    if (n * (a.bit_length() - 1) >= SIZE_LIMIT.bit_length()
            or a**n > SIZE_LIMIT):
        raise ValueError("a**n exceeds supported size")
    target = a**n - eps**n
    for i in range(1, n):
        earlier = a**i - eps**i
        g = math.gcd(target, earlier)
        while g > 1:
            target //= g
            g = math.gcd(target, earlier)
    if target == 1:
        return None
    g = math.gcd(target, _LOW_PRODUCT)
    if g > 1:
        return next(p for p in _LOW_PRIMES if g % p == 0)
    return min(_prime_exponents(target))


def member(orders, x: int) -> bool:
    """Membership in a divisor-closed order set given by its attained
    orders: x divides some attained order.

    orders must be positive and ascending, as omega and parse_dump give
    them: a positive multiple of x is at least x, so the scan starts at
    the first order >= x.
    """
    if x < 1:
        raise ValueError("order must be positive")
    for o in orders[bisect_left(orders, x):]:
        if o % x == 0:
            return True
    return False
