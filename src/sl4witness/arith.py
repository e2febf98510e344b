"""Exact integer helpers shared by the whole package.

Everything here is pure and deterministic: 2-adic parts, certified
factorization (trial division, then Brent's rho on a fixed parameter
schedule), primitive prime divisors of a^n - (eps*1)^n, and element orders
in cyclic groups.  No randomness, so repeated runs factor the same input
the same way.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

# Inputs above this size are refused rather than risking unbounded work.
SIZE_LIMIT = 1 << 128

_LOW_TRIAL_LIMIT = 1 << 10
_TRIAL_LIMIT = 1 << 16

# Miller-Rabin with the first 13 primes as bases is a proven-deterministic
# primality test for n < 3_317_044_064_679_887_385_961_981 (about 2**81),
# which covers every quantity the desk-scale pipeline actually factors.
# Larger inputs (up to SIZE_LIMIT) additionally get the extended base list;
# no counterexample is known for that range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclass(frozen=True)
class PrimePower:
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


@lru_cache(maxsize=1)
def _high_primes() -> tuple[int, ...]:
    """The primes from _LOW_TRIAL_LIMIT up to _TRIAL_LIMIT, built on the
    first input that needs them."""
    return _primes_below(_TRIAL_LIMIT)[len(_LOW_PRIMES):]


def _trial_divide(n: int, primes, found: dict[int, int]) -> int:
    """Divide out of n the given ascending primes, stopping once p^2 > n;
    record each in found and return the cofactor."""
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    return n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (see _MR_BASES note)."""
    if n < 2:
        return False
    if n > SIZE_LIMIT:
        raise ValueError(f"{n} exceeds supported size {SIZE_LIMIT}")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_PROVEN_BOUND else _MR_BASES + _MR_EXTRA_BASES
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
    ... so a given n always splits the same way.
    """
    for c in range(1, 1000):
        y, r, q_acc, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
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
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> list[PrimePower]:
    """Full prime factorization of n >= 2, ascending by prime.

    Each factor is certified prime by is_prime, so the result can be trusted
    by downstream order/divisor computations.
    """
    if n < 2:
        raise ValueError("factorize needs n >= 2")
    if n > SIZE_LIMIT:
        raise ValueError(f"{n} exceeds supported size {SIZE_LIMIT}")
    found: dict[int, int] = {}
    n = _trial_divide(n, _LOW_PRIMES, found)
    # a cofactor below _LOW_TRIAL_LIMIT^2 with no prime factor below
    # _LOW_TRIAL_LIMIT is 1 or prime, so only larger ones need the rest
    if n >= _LOW_TRIAL_LIMIT * _LOW_TRIAL_LIMIT:
        n = _trial_divide(n, _high_primes(), found)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return [PrimePower(p, e) for p, e in sorted(found.items())]


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return [pp.prime for pp in factorize(n)]


def primitive_prime_divisor(a: int, n: int, eps: int) -> int | None:
    """Smallest prime dividing a^n - (eps*1)^n but no a^i - (eps*1)^i, i < n.

    Returns None when no such prime exists (the classical Bang/Zsigmondy
    exception patterns).  eps is +1 or -1.
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
    # cheap pre-filter: a prime shared with an earlier term is never
    # primitive, and gcd-stripping them all leaves a value small enough
    # (it divides a cyclotomic evaluation) to factor instantly
    for i in range(1, n):
        earlier = a**i - eps**i
        g = math.gcd(target, earlier)
        while g > 1:
            target //= g
            g = math.gcd(target, earlier)
    if target == 1:
        return None
    for r in prime_divisors(target):
        for i in range(1, n):
            low = 1 if (eps == 1 or i % 2 == 0) else r - 1
            if pow(a, i, r) == low % r:
                break
        else:
            return r
    return None


def order_in_cyclic(modulus: int, e: int) -> int:
    """Multiplicative order of g^e where g generates a cyclic group of the
    given order; equals modulus // gcd(modulus, e)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return modulus // math.gcd(modulus, e % modulus)


def inverse_mod_2pow(x: int, s: int) -> int:
    """Inverse of odd x modulo 2**s."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if x % 2 == 0:
        raise ValueError("x must be odd")
    return pow(x, -1, 1 << s)
