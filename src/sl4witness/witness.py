"""Constructs witness certificates for SL4^eps(q).

A certificate names a semisimple element g of SL4^eps(q) through the
exponents of its four characteristic values with respect to a root of unity
theta of order N, together with one selected subset of positions per active
slot of the input profile (k_0, ..., k_{m-1}).  The constraints the
certificate must satisfy are re-checked independently in the verifier
module; this module only has to produce them.

Which N is used depends on the profile shape.  The case tags, the
classification and each case's N come from the case table in params
(classify_profile, target_orders), which the verifier reads too:

  A_R4            all k_i in {0, 2}.  N is the smallest prime dividing
                  q^4 - 1 but no smaller q^i - (eps)^i; the characteristic
                  values are theta^(1, eps*q, q^2, eps*q^3) and each k_i = 2
                  slot selects positions {1, 3}, whose values multiply to 1.
  B_R3            no k_i = 2.  N is primitive for exponent 3; values
                  theta^(1, eps*q, q^2) and a fixed value 1.  A k_i = 1 slot
                  selects the fixed value, a k_i = 3 slot selects the three
                  theta-positions, whose product is 1.
  C_QcongMinusEps mixed profile, q = -eps (mod 4).  N = (q^2 - 1)_2 and the
                  values are theta, theta^(eps*q), -1, 1.  Selected products
                  are all +-1; if the signs do not cancel, one slot with
                  k_i in {1, 3} trades its fixed value 1 for -1.
  D_QcongEps      mixed profile, q = eps (mod 4).  N = r*(q - eps)_2 with r
                  an odd prime dividing q + eps but not q - eps, and the
                  exponents carry two free integers a, b chosen so that the
                  combined fixed-point exponent a*A + r*b*B vanishes mod
                  (q - eps)_2 while a, b have opposite parity (which pins
                  the order of g to exactly N and keeps its cyclic group
                  clear of the center).  Solvability needs the 2-parts of A
                  and B to differ; balance_two_parts restores that by
                  retouching at most two selections.
"""

import math
from typing import NamedTuple

from . import arith, params as params_mod
from .params import (CASE_A, CASE_B, CASE_C, CASE_D, GroupParams,
                     classify_profile)


class ConstructionError(RuntimeError):
    """A construction path that should be unreachable was hit."""


class Selection(NamedTuple):
    """Positions (1-based, ascending) selected for one profile slot."""

    factor: int
    positions: tuple[int, ...]


class Adjustment(NamedTuple):
    kind: str  # "flip" (k in {1,3} slot) or "swap" (k = 2 slot)
    factor: int


class CaseDInternals(NamedTuple):
    r: int
    t: int
    a: int
    b: int
    coeff_a: int  # multiplies a in the fixed-point exponent
    coeff_rb: int  # multiplies r*b in the fixed-point exponent
    adjustments: tuple[Adjustment, ...]


class WitnessCertificate(NamedTuple):
    params: GroupParams
    profile: tuple[int, ...]
    case: str
    theta_order: int
    exponents: tuple[int, int, int, int]
    selections: tuple[Selection, ...]
    claimed_order: int
    target_order: int
    case_d: CaseDInternals | None = None


# Per-selection contribution to the fixed-point exponent in case D, written
# as sigma * a * (1 + eps*q) + tau * r*b.  Only these six position sets occur.
_SHAPE_COEFFS = {
    (1, 2): (1, 0),
    (3, 4): (-1, 0),
    (3,): (0, 1),
    (4,): (-1, -1),
    (1, 2, 4): (0, -1),
    (1, 2, 3): (1, 1),
}

_FLIP = {(3,): (4,), (4,): (3,), (1, 2, 4): (1, 2, 3), (1, 2, 3): (1, 2, 4)}
_SWAP = {(1, 2): (3, 4), (3, 4): (1, 2)}


def fixed_point_exponent(exponents: tuple[int, ...], shapes, weights,
                         moved, p: int) -> int:
    """sum over slots of p^i * (sum of selected exponents), from the
    per-entry weights: W_k times the exponents shapes[k] selects, plus p^i
    times the change at each slot (i, base, new) in moved."""
    total = 0
    for k, shape in enumerate(shapes):
        if weights[k]:
            part = 0
            for j in shape:
                part += exponents[j - 1]
            total += weights[k] * part
    for factor, base, new in moved:
        part = 0
        for j in new:
            part += exponents[j - 1]
        for j in base:
            part -= exponents[j - 1]
        total += p**factor * part
    return total


def compute_AB(shapes, weights, moved,
               params: GroupParams) -> tuple[int, int]:
    """Coefficients (A, B) with total fixed-point exponent a*A + r*b*B,
    from the weights and retouched slots as in fixed_point_exponent."""
    sigma = tau = 0
    for k, shape in enumerate(shapes):
        if weights[k]:
            coeff_sigma, coeff_tau = _SHAPE_COEFFS[shape]
            sigma += coeff_sigma * weights[k]
            tau += coeff_tau * weights[k]
    for factor, base, new in moved:
        weight = params.p**factor
        (sigma_base, tau_base), (sigma_new, tau_new) = (
            _SHAPE_COEFFS[base], _SHAPE_COEFFS[new])
        sigma += (sigma_new - sigma_base) * weight
        tau += (tau_new - tau_base) * weight
    return (1 + params.epsilon * params.q) * sigma, tau


def _retouch(selections: list[Selection], moved: list, profile, entries,
             table) -> int | None:
    """Give the first slot whose profile entry is in entries the positions
    table maps its own to, record (factor, base, new) in moved and return
    the factor; None if no slot has such an entry."""
    for idx, sel in enumerate(selections):
        if profile[sel.factor] in entries:
            new = table[sel.positions]
            selections[idx] = Selection(sel.factor, new)
            moved.append((sel.factor, sel.positions, new))
            return sel.factor
    return None


def balance_two_parts(profile: tuple[int, ...], params: GroupParams,
                      selections: list[Selection], shapes, weights,
                      moved: list) -> tuple[int, int, tuple[Adjustment, ...]]:
    """(A, B) from compute_AB, with selections retouched until
    (A)_2 != (B)_2; each retouch goes into selections and moved.

    When both 2-parts equal 2, flipping the lowest k_i in {1, 3} slot between
    positions 3 and 4 moves A by (1 + eps*q)*p^i and B by 2*p^i, which
    strictly raises both 2-parts; if they land equal again (now >= 4),
    trading a k_i = 2 slot between {1,2} and {3,4} moves A by
    2*(1 + eps*q)*p^i, whose 2-part is exactly 4, so A's 2-part changes while
    B stays put.  At most two touches are ever needed.
    """
    A, B = compute_AB(shapes, weights, moved, params)
    if arith.two_part(A) != arith.two_part(B):
        return A, B, ()
    adjustments = []
    if arith.two_part(A) == 2:
        factor = _retouch(selections, moved, profile, (1, 3), _FLIP)
        if factor is None:
            raise ConstructionError("no k in {1,3} slot available to flip")
        adjustments.append(Adjustment("flip", factor))
        A, B = compute_AB(shapes, weights, moved, params)
    if arith.two_part(A) == arith.two_part(B):
        factor = _retouch(selections, moved, profile, (2,), _SWAP)
        if factor is None:
            raise ConstructionError("no k = 2 slot available to swap")
        adjustments.append(Adjustment("swap", factor))
        A, B = compute_AB(shapes, weights, moved, params)
    if A == 0 or B == 0 or arith.two_part(A) == arith.two_part(B):
        raise ConstructionError("2-part balancing failed")
    return A, B, tuple(adjustments)


def solve_ab(A: int, B: int, params: GroupParams, r: int) -> tuple[int, int]:
    """Solve a*A + r*b*B = 0 (mod (q - eps)_2) with opposite parities.

    The side with the smaller 2-part gets the free variable: dividing the
    congruence by that 2-part leaves an odd coefficient there, invertible
    mod the 2-power, and forces the solved variable even while the other is
    pinned to 1 (odd).  When A carries the solved variable it is shifted by
    (q - eps)_2 once if r divides it, which keeps parity and the congruence.
    """
    va, vb = arith.two_part(A), arith.two_part(B)
    if va == vb:
        raise ValueError("2-parts of A and B must differ (balance first)")
    s2 = arith.two_part(params.q - params.epsilon)
    if va < vb:
        b = 1
        rhs = (-r * (B // va)) % s2
        a = rhs * pow(A // va, -1, s2) % s2
        if a % r == 0:
            a += s2
    else:
        a = 1
        rhs = (-(A // vb)) % s2
        b = rhs * pow(r * (B // vb), -1, s2) % s2
    if (a * A + r * b * B) % s2 != 0:
        raise ConstructionError("congruence solution check failed")
    if (a + b) % 2 != 1 or math.gcd(a, r) != 1:
        raise ConstructionError("parity/coprimality invariant failed")
    return a, b


def case_d_exponents(a: int, b: int, r: int, t: int, eps: int,
                     q: int) -> tuple[int, int, int, int]:
    return (
        a % t,
        (eps * a * q) % t,
        (r * b) % t,
        (-a * (1 + eps * q) - r * b) % t,
    )


# Per case, the positions a slot with profile entry k selects (None where
# the case has no such slot).
_BASE_SHAPES = {
    CASE_A: (None, None, (1, 3), None),
    CASE_B: (None, (4,), None, (1, 2, 3)),
    CASE_C: (None, (4,), (3, 4), (1, 2, 4)),
    CASE_D: (None, (3,), (1, 2), (1, 2, 4)),
}

# Selection records, _RECORDS[case][k][i] = Selection(i, base shape of k)
# for i < m, built on a case's first use and rebuilt for a longer profile.
_RECORDS = {}


def construct(params: GroupParams, profile) -> WitnessCertificate:
    """Build a certificate for this profile; deterministic for fixed input.

    One pass over the profile picks each active slot's record and sums, per
    entry k, the weight W_k = sum of p^i over the slots with k_i = k.  A
    selection enters every sum below only through p^i times a quantity of
    its shape, so fixed_point_exponent and case D's compute_AB read the
    W_k and the list moved, where _retouch records each slot case C or D
    retouches, (i, base shape, new shape).
    """
    profile = tuple(profile)
    case = classify_profile(profile, params)
    eps, p, q = params.epsilon, params.p, params.q
    case_d = None

    # never None: case D needs a mixed profile, so m >= 2 and q > 3
    n_ord = params_mod.target_orders(params, case)

    shapes = _BASE_SHAPES[case]
    rows = _RECORDS.get(case)
    if rows is None or len(rows[0]) < len(profile):
        rows = _RECORDS[case] = tuple(
            tuple(Selection(i, shape) if shape else None
                  for i in range(len(profile))) for shape in shapes)
    selections = []
    weights = [0, 0, 0, 0]
    weight = 1
    for i, k in enumerate(profile):
        if k:
            selections.append(rows[k][i])
            weights[k] += weight
        weight *= p
    moved = []  # (factor, base positions, new positions) per retouched slot

    if case == CASE_A:
        exponents = (1 % n_ord, (eps * q) % n_ord, (q * q) % n_ord,
                     (eps * q**3) % n_ord)

    elif case == CASE_B:
        exponents = (1 % n_ord, (eps * q) % n_ord, (q * q) % n_ord, 0)

    elif case == CASE_C:
        exponents = (1, (eps * q) % n_ord, n_ord // 2, 0)
        total = fixed_point_exponent(exponents, shapes, weights, moved,
                                     p) % n_ord
        if total != 0:
            if total != n_ord // 2:
                raise ConstructionError("case C sum is neither 0 nor N/2")
            # Trading the fixed value 1 for -1 in one odd slot shifts the
            # sum by N/2, which cancels it.
            if _retouch(selections, moved, profile, (1, 3), _FLIP) is None:
                raise ConstructionError(
                    "no k in {1,3} slot available in case C")

    else:  # CASE_D
        r = n_ord // arith.two_part(q - eps)
        A, B, adjustments = balance_two_parts(profile, params, selections,
                                              shapes, weights, moved)
        a, b = solve_ab(A, B, params, r)
        # The selected values are pairwise distinct mod N = r * (q - eps)_2.
        # r divides q + eps, so mod r the exponents are (a, -a, 0, 0), and
        # every pair a case-D shape selects, except positions 3 and 4,
        # differs by a, -a or 2a, a unit since gcd(a, r) = 1 and r is odd.
        # Exponents 3 and 4 differ by 2*r*b + a*(1 + eps*q); (1 + eps*q)_2
        # is 2 as q = eps (mod 4), and a + b is odd, so the difference has
        # 2-part exactly 2 and is nonzero mod (q - eps)_2 >= 4.
        exponents = case_d_exponents(a, b, r, n_ord, eps, q)
        case_d = CaseDInternals(r, n_ord, a, b, A, B, adjustments)

    if fixed_point_exponent(exponents, shapes, weights, moved, p) % n_ord != 0:
        raise ConstructionError("fixed-point exponent does not vanish")
    return WitnessCertificate(params, profile, case, n_ord, exponents,
                              tuple(selections), n_ord, p * n_ord, case_d)
