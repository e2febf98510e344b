"""The groups SL4^eps(q) and the case table.

eps = +1 selects the linear family, eps = -1 the unitary one; q = p^m is an
odd prime power.  A GroupParams value is the four integers that name the
group, as a document's params block carries them; every other constant is
computed where it is read, so none can disagree with the record.

The case table is the one specification that the constructor and the
verifier share: the four case tags, which case a profile falls in, and each
case's witness order N (target_orders).
"""

from functools import lru_cache
from typing import NamedTuple

from . import arith

# derive() refuses q above this.  The arithmetic allows q < 2^32, where
# primitive_prime_divisor's q^4 still fits SIZE_LIMIT and the worst
# factorization (q^2 + 1 a product of two primes near 2^32) takes tens of
# milliseconds; the cap stays at 2^16 because the benchmark's request pool
# and the tests' refusal cases are recorded at it.
Q_CAP = 1 << 16

PLUS = 1
MINUS = -1

CASE_A = "A_R4"
CASE_B = "B_R3"
CASE_C = "C_QcongMinusEps"
CASE_D = "D_QcongEps"

ALL_CASES = (CASE_A, CASE_B, CASE_C, CASE_D)

# The degree n of the primitive prime divisor that each case's N is built
# from; case C's N has none.
_PPD_DEGREE = {CASE_A: 4, CASE_B: 3, CASE_D: 2}


def sign_from_str(s: str) -> int:
    if s == "+":
        return PLUS
    if s == "-":
        return MINUS
    raise ValueError(f"epsilon must be '+' or '-', got {s!r}")


def sign_to_str(eps: int) -> str:
    if eps == PLUS:
        return "+"
    if eps == MINUS:
        return "-"
    raise ValueError(f"epsilon must be +1 or -1, got {eps!r}")


class GroupParams(NamedTuple):
    epsilon: int
    p: int
    m: int
    q: int


@lru_cache(maxsize=8, typed=True)
def derive(epsilon: int, p: int, m: int) -> GroupParams:
    """Validate (epsilon, p, m) and compute q = p^m.

    Each must be an int and not a bool: True and 1.0 would pass the range
    tests and hash like 1, and a float p or m fails inside the arithmetic.

    Memoized by (epsilon, p, m) in an LRU cache of 8 entries, so that a
    process which derives one field twice (a CLI round trip: construct,
    then the document reader) pays for it once.  typed=True keys each
    argument by its type as well as its value, so an int subclass gets an
    entry of its own; a refused input raises, and lru_cache never caches
    a raise, so True, 1.0 or 3.0 is refused on every call.  An unhashable
    argument raises TypeError from the cache lookup.
    """
    if (type(epsilon) is not int and not is_plain_int(epsilon)
            or epsilon not in (PLUS, MINUS)):
        raise ValueError("epsilon must be +1 or -1")
    if type(p) is not int and not is_plain_int(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")
    if p < 3 or p % 2 == 0 or not arith.is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if type(m) is not int and not is_plain_int(m):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    q = arith.power_at_most(p, m, Q_CAP)
    if q is None:
        raise ValueError(f"q = {p}^{m} exceeds supported bound {Q_CAP}")
    return GroupParams(epsilon, p, m, q)


def derive_from_q(epsilon: int, q: int) -> GroupParams:
    """derive() for a field given by its order q = p^m.

    q is bounded before it is factorized, so an oversized q is refused at
    once rather than after a long factorization.  q must be an int and not
    a bool, as derive's arguments must.
    """
    if type(q) is not int and not is_plain_int(q):
        raise ValueError(f"q must be an odd prime power, got {q!r}")
    if q < 3:
        raise ValueError(f"q must be an odd prime power, got {q}")
    if q > Q_CAP:
        raise ValueError(f"q = {q} exceeds supported bound {Q_CAP}")
    powers = arith.factorize(q)
    if len(powers) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return derive(epsilon, powers[0].prime, powers[0].exponent)


def is_plain_int(x) -> bool:
    """x is an int but not a bool, as the document format requires: a
    float or a bool would pass range and shape tests by comparing or
    hashing like an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_profile(profile: tuple[int, ...], m: int) -> None:
    """Refuse a profile of the wrong length or with an entry that is not an
    int in 0..3, as the document format does: a bool or a float equal to
    one of them (True, 1.0) is refused too."""
    if len(profile) != m:
        raise ValueError(f"profile length {len(profile)} != m = {m}")
    for k in profile:
        if type(k) is int:  # the fast path
            if 0 <= k <= 3:
                continue
        elif is_plain_int(k) and k in (0, 1, 2, 3):
            continue
        raise ValueError("profile entries must lie in {0, 1, 2, 3}")


def classify_profile(profile: tuple[int, ...], params: GroupParams) -> str:
    """Case tag for this profile; the all-zero profile counts as A_R4."""
    check_profile(profile, params.m)
    # every entry is one of 0..3 now
    if 1 not in profile and 3 not in profile:
        return CASE_A
    if 2 not in profile:
        return CASE_B
    if params.q % 4 == (-params.epsilon) % 4:
        return CASE_C
    return CASE_D


@lru_cache(maxsize=64)
def target_orders(params: GroupParams, case: str) -> int | None:
    """The witness order N of this case at these parameters.

    Memoized in an LRU cache of 64 entries.  A field has at most four
    entries and a sweep asks for them while it visits that field, so the
    bound loses no hit there, while a process that sees one field after
    another frees the old ones.  The key is not typed: its two arguments
    are always a GroupParams and a str, and a typed key cost each lookup
    ~30 ns.

    A: the least primitive prime divisor r4 of q^4 - 1; B: r3, primitive
    for q^3 - eps; C: (q^2 - 1)_2; D: r2 * (q - eps)_2 with r2 primitive
    for q^2 - 1, or None unless 3 < q and q = eps (mod 4), where case D
    does not apply.  Only the one primitive prime search the case needs
    runs.  Where the case applies the primitive prime divisor is
    guaranteed to exist, so a None from primitive_prime_divisor means an
    internal defect.
    """
    eps, q = params.epsilon, params.q
    if case == CASE_C:
        return arith.two_part(q * q - 1)
    if case == CASE_D and not (q > 3 and q % 4 == eps % 4):
        return None
    r = arith.primitive_prime_divisor(q, _PPD_DEGREE[case], eps)
    if r is None:
        raise ArithmeticError("primitive divisor existence guarantee violated")
    return r * arith.two_part(q - eps) if case == CASE_D else r
