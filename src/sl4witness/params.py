"""Derived constants for the groups SL4^eps(q) and their central quotients.

eps = +1 selects the linear family, eps = -1 the unitary one; q = p^m is an
odd prime power.  All downstream modules consume a GroupParams value rather
than recomputing these quantities.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import arith

# derive() refuses q above this.  The arithmetic allows q < 2^32, where
# primitive_prime_divisor's q^4 still fits SIZE_LIMIT and the worst
# factorization (q^2 + 1 a product of two primes near 2^32) takes tens of
# milliseconds; the cap stays at 2^16 because the benchmark's request pool
# and the tests' refusal cases are recorded at it.
Q_CAP = 1 << 16

PLUS = 1
MINUS = -1

KIND_R4 = "R4"
KIND_R3 = "R3"
KIND_TWO_PART = "TwoPartQ2M1"
KIND_R2_TWO_PART = "R2TimesTwoPart"


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


@dataclass(frozen=True)
class GroupParams:
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


@dataclass(frozen=True)
class TargetOrderKind:
    """One admissible witness order family; order is None when the family
    does not apply at these parameters."""

    kind: str
    order: int | None
    applicable: bool


@lru_cache(maxsize=None)
def target_orders(params: GroupParams) -> tuple[TargetOrderKind, ...]:
    """The witness-order families for these parameters.

    R4, R3 and TwoPartQ2M1 always apply; R2TimesTwoPart applies exactly when
    3 < q and q = eps (mod 4).  For applicable families the primitive prime
    divisors involved are guaranteed to exist, so a None from
    primitive_prime_divisor means an internal defect.
    """
    eps, q = params.epsilon, params.q
    r4 = arith.primitive_prime_divisor(q, 4, eps)
    r3 = arith.primitive_prime_divisor(q, 3, eps)
    if r4 is None or r3 is None:
        raise ArithmeticError("primitive divisor existence guarantee violated")
    r2_applies = q > 3 and q % 4 == eps % 4
    r2_order = None
    if r2_applies:
        r2 = arith.primitive_prime_divisor(q, 2, eps)
        if r2 is None:
            raise ArithmeticError("primitive divisor existence guarantee violated")
        r2_order = r2 * params.two_part_qme
    return (
        TargetOrderKind(KIND_R4, r4, True),
        TargetOrderKind(KIND_R3, r3, True),
        TargetOrderKind(KIND_TWO_PART, params.two_part_q2m1, True),
        TargetOrderKind(KIND_R2_TWO_PART, r2_order, r2_applies),
    )
