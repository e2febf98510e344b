"""Derived constants for the groups SL4^eps(q) and the case table.

eps = +1 selects the linear family, eps = -1 the unitary one; q = p^m is an
odd prime power.  All downstream modules consume a GroupParams value rather
than recomputing these quantities.

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
    phi3: int  # q^2 + eps*q + 1
    phi4: int  # q^2 + 1
    two_part_qme: int  # (q - eps)_2
    two_part_q2m1: int  # (q^2 - 1)_2


def derive(epsilon: int, p: int, m: int) -> GroupParams:
    """Validate (epsilon, p, m) and compute the derived constants."""
    if epsilon not in (PLUS, MINUS):
        raise ValueError("epsilon must be +1 or -1")
    if p < 3 or p % 2 == 0 or not arith.is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    # p >= 3 > 2, so this m already puts p^m past the cap; refusing it
    # here keeps p**m from running on an unbounded exponent
    if m >= Q_CAP.bit_length():
        raise ValueError(f"q = {p}^{m} exceeds supported bound {Q_CAP}")
    q = p**m
    if q > Q_CAP:
        raise ValueError(f"q = {q} exceeds supported bound {Q_CAP}")
    return GroupParams(
        epsilon=epsilon,
        p=p,
        m=m,
        q=q,
        phi3=q * q + epsilon * q + 1,
        phi4=q * q + 1,
        two_part_qme=arith.two_part(q - epsilon),
        two_part_q2m1=arith.two_part(q * q - 1),
    )


def derive_from_q(epsilon: int, q: int) -> GroupParams:
    """derive() for a field given by its order q = p^m.

    q is bounded before it is factorized, so an oversized q is refused at
    once rather than after a long factorization.
    """
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


@lru_cache(maxsize=None)
def target_orders(params: GroupParams, case: str) -> int | None:
    """The witness order N of this case at these parameters.

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
        return params.two_part_q2m1
    if case == CASE_D and not (q > 3 and q % 4 == eps % 4):
        return None
    r = arith.primitive_prime_divisor(q, _PPD_DEGREE[case], eps)
    if r is None:
        raise ArithmeticError("primitive divisor existence guarantee violated")
    return r * params.two_part_qme if case == CASE_D else r
