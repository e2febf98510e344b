"""Exact integer helpers shared by the whole package.

Everything here is pure and deterministic: 2-adic parts, primality (a
set lookup below 2^10, one gcd with the product of the primes below 2^8
up to 2^16 and of those below 2^10 up to 2^20, Miller-Rabin with proven
bases above: 2, 7 and 61 below 4,759,123,141 by Jaeschke 1993),
certified factorization in three stages (the primes below 2^10 by one
gcd with their product, then each composite part below 2^34 by gcds with
cached products of runs of the primes in [2^10, 2^17), and each larger
one by Brent's rho on a fixed parameter schedule and work budget), powers
refused past a size bound before they are computed, primitive prime
divisors of a^n - (eps*1)^n (found after one gcd strip per prime l
dividing n, against a^(n/l) - (eps*1)^(n/l)), and membership in a
divisor-closed order set.  No randomness, so repeated runs factor the
same input the same way.
"""

import math
from itertools import compress, count
from typing import NamedTuple

# Inputs above this size are refused rather than risking unbounded work.
SIZE_LIMIT = 1 << 128
# SIZE_LIMIT's decimal length; longer decimal strings are refused before
# int() parses them (Python itself refuses past 4300 digits).
MAX_DIGITS = len(str(SIZE_LIMIT))

_LOW_TRIAL_LIMIT = 1 << 10

# Rho squarings per split, ~1 s.  Rho only splits parts of 2^34 and more,
# which the mid-range table does not reach: splitting off p takes about
# sqrt(p), so a balanced 2^64 semiprime needs ~2^17, and a composite with
# no prime below about 2^38 is refused.
_RHO_BUDGET = 1 << 21

# Miller-Rabin with a fixed set of bases is a proven-deterministic
# primality test below the smallest strong pseudoprime to all of them, so
# is_prime uses the first tier proven for its input:
#
#   n < 4_759_123_141                      bases 2, 7, 61   Jaeschke 1993
#   n < 3_825_123_056_546_413_051          first 9 primes   Sorenson and
#   n < 3_317_044_064_679_887_385_961_981  all 13 primes    Webster 2017
#
# 4_759_123_141 = 48781 * 97561 is itself a strong pseudoprime to 2, 7 and
# 61.  Every primitive prime divisor target at q <= params.Q_CAP is below
# 2^32, so it takes three bases.  Larger inputs (up to SIZE_LIMIT) add the
# extended base list; no counterexample is known for that range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASE_PRODUCT = math.prod(_MR_BASES)
_MR_PROVEN_BOUND = 3317044064679887385961981
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_TIERS = (
    (4759123141, (2, 7, 61)),
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
    return a & -a  # the lowest set bit, of -a as of a


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, ascending."""
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return tuple(compress(range(limit), sieve))


_LOW_PRIMES = _primes_below(_LOW_TRIAL_LIMIT)
_LOW_PRIME_SET = frozenset(_LOW_PRIMES)
_LOW_PRODUCT = math.prod(_LOW_PRIMES)
_SMALL_PRODUCT = math.prod(p for p in _LOW_PRIMES if p < 1 << 8)

# The mid-range table: the primes in [2^10, 2^17), in runs of _MID_RUN,
# with each run's least prime and product.  Nothing is built at import: a
# scan that runs past the table adds the next block between two of
# _MID_BOUNDS.  On a 2-vCPU host the blocks take ~0.4, ~1.0 and ~1.4 ms,
# so a process whose least primes stay below 2^14 builds only the first,
# and at most three splits per process pay for the table.  The last block
# is only reached by a least prime of 2^16 or more, which no composite
# below (2^16 + 1)^2 has: none that a search at q <= params.Q_CAP leaves,
# where q^2 + 1 and q^2 + eps*q + 1 bound the parts, so only factorize or
# primitive_prime_divisor on larger inputs build it.  The products take
# ~32 kB.
_MID_BOUNDS = (_LOW_TRIAL_LIMIT, 1 << 14, 1 << 16, 1 << 17)
_MID_SPLIT_LIMIT = _MID_BOUNDS[-1] ** 2
_MID_RUN = 64
_mid_starts: list[int] = []
_mid_products: list[int] = []
_mid_blocks = 0


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below 2^10 n is looked up among the primes there; below 2^16 it is
    prime exactly when its gcd with the product of the primes below 2^8
    is 1, and below 2^20 with that of the primes below 2^10, as a
    composite has a prime factor below its square root; above,
    Miller-Rabin with the proven bases for its size (see _MR_BASES note).
    """
    if n < _LOW_TRIAL_LIMIT:
        return n in _LOW_PRIME_SET
    if n < 1 << 16:
        return math.gcd(n, _SMALL_PRODUCT) == 1
    if n < _LOW_TRIAL_LIMIT * _LOW_TRIAL_LIMIT:
        return math.gcd(n, _LOW_PRODUCT) == 1
    if n > SIZE_LIMIT:
        raise ValueError(f"{n} exceeds supported size {SIZE_LIMIT}")
    if math.gcd(n, _MR_BASE_PRODUCT) != 1:  # n >= 2^20 is no base
        return False
    s = two_part(n - 1).bit_length() - 1
    d = (n - 1) >> s
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


def _extend_mid_table() -> None:
    """Append the runs of primes in the next block [lo, hi) of the
    mid-range table.  An odd-only sieve by the primes below 2^10 finds
    them, which is enough below 2^20."""
    global _mid_blocks
    if _mid_blocks == len(_MID_BOUNDS) - 1:
        raise ValueError("mid-range table exhausted")
    lo, hi = _MID_BOUNDS[_mid_blocks:_mid_blocks + 2]
    size = (hi - lo) // 2
    # entry i stands for lo + 1 + 2i, which p divides when
    # i = -(lo + 1) / 2 (mod p)
    odd = bytearray([1]) * size
    for p in _LOW_PRIMES[1:]:
        if p * p > hi:
            break
        i = -(lo + 1) * (p + 1) // 2 % p
        odd[i::p] = bytes(len(range(i, size, p)))
    primes = list(compress(range(lo + 1, hi, 2), odd))
    for j in range(0, len(primes), _MID_RUN):
        _mid_starts.append(primes[j])
        _mid_products.append(math.prod(primes[j:j + _MID_RUN]))
    _mid_blocks += 1


def _least_mid_prime(m: int) -> int:
    """Least prime factor of a composite m < 2^34 with no prime factor
    below 2^10.

    Such an m has a prime factor below 2^17, and every divisor of m below
    2^20 is prime.  So the first run of the mid-range table whose product
    shares a factor with m holds m's least prime, and the gcd g is that
    prime, unless it is 2^20 or more and so the product of several of the
    run's primes; then the first odd number from the run's start that
    divides g is its least prime, as a composite below 2^17 has a prime
    factor below 2^10.
    """
    for i in count():
        if i == len(_mid_products):
            _extend_mid_table()
        g = math.gcd(_mid_products[i], m)
        if g > 1:
            break
    if g < _LOW_TRIAL_LIMIT * _LOW_TRIAL_LIMIT:
        return g
    return next(c for c in count(_mid_starts[i], 2) if g % c == 0)


def _prime_exponents(n: int) -> dict[int, int]:
    """The prime -> exponent map of n >= 2, in no particular order.

    The primes below 2^10 are found by one gcd with their product and
    divided out.  The cofactor is split until is_prime holds for every
    part: a composite part below 2^34 by its least prime, which the
    mid-range table's gcds find, and a larger one by Brent's rho.  So each
    factor is certified prime and the result can be trusted by downstream
    order/divisor computations.
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
        d = _least_mid_prime(m) if m < _MID_SPLIT_LIMIT else _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return found


def factorize(n: int) -> list[PrimePower]:
    """Full prime factorization of n >= 2, ascending by prime.

    Primes below 2^10 fall out of one gcd, a composite part below 2^34
    splits by the mid-range table and a larger one by rho: ValueError
    when a rho split needs over _RHO_BUDGET = 2^21 squarings (~1 s)."""
    return [PrimePower(p, e) for p, e in sorted(_prime_exponents(n).items())]


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return sorted(_prime_exponents(n))


def power_at_most(a: int, n: int, limit: int) -> int | None:
    """The integer a**n, or None when n < 0 or a**n exceeds limit: as
    |a|**n has at least n * (a.bit_length() - 1) + 1 bits, a power past
    limit's bit length is refused by that bound before it is computed."""
    if n < 0 or n * (a.bit_length() - 1) >= limit.bit_length():
        return None
    power = a**n
    return power if power <= limit else None


def primitive_prime_divisor(a: int, n: int, eps: int) -> int | None:
    """Smallest prime dividing a^n - (eps*1)^n but no a^i - (eps*1)^i, i < n.

    None when there is none (the Bang/Zsigmondy exceptions); eps is +1/-1.
    Dividing out every prime shared with an earlier term leaves exactly the
    primitive primes, as a primitive prime divides no earlier term.  The
    terms a^(n/l) - eps^(n/l), one per prime l dividing n, share the same
    primes: a prime r that divides a^i - eps^i and a^n - eps^n has
    (eps*a)^i = (eps*a)^n = 1 mod r, so the order of eps*a mod r divides
    gcd(i, n), a proper divisor of n and so a divisor of some n/l.  The
    answer is the least prime factor of what is left: one gcd finds it
    below 2^10, and is it when that gcd is itself prime; above, what is
    left is the answer when it is prime, a composite below 2^34 gives its
    least prime to the mid-range table, and only a larger one is
    factorized (ValueError past rho's budget).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if a < 2 or n < 2:
        raise ValueError("need a >= 2 and n >= 2")
    power = power_at_most(a, n, SIZE_LIMIT)
    if power is None:
        raise ValueError("a**n exceeds supported size")
    target = power - eps**n
    for ell in _LOW_PRIMES:
        if ell > n:
            break
        if n % ell:
            continue
        earlier = a ** (n // ell) - eps ** (n // ell)
        g = math.gcd(target, earlier)
        while g > 1:
            target //= g
            g = math.gcd(target, earlier)
    if target == 1:
        return None
    g = math.gcd(target, _LOW_PRODUCT)
    if g in _LOW_PRIME_SET:
        return g
    if g > 1:
        return next(p for p in _LOW_PRIMES if g % p == 0)
    if is_prime(target):
        return target
    if target < _MID_SPLIT_LIMIT:
        return _least_mid_prime(target)
    return min(_prime_exponents(target))


def member(orders, x: int) -> bool:
    """Membership in a divisor-closed order set: x divides one of orders,
    any positive orders whose divisors make up the set, in any order (all
    of them, as omega gives them, or the maximal ones, as omega_maxima)."""
    if x < 1:
        raise ValueError("order must be positive")
    return any(o % x == 0 for o in orders)
