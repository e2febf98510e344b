"""The constructor as it was before the one-pass rewrite.

witness.construct picks each selection from prebuilt records in one pass
over the profile, which also sums the weights p^i per profile entry that
the case-D coefficients and the fixed-point exponent follow from.  This
module keeps the earlier, direct version verbatim: selections built per
profile, (A, B) from compute_AB and the closing check from
fixed_point_exponent.  Its certificates are the reference the live
constructor is tested against, and the source of deliberately wrong
certificates (built with one of its helpers replaced) that the verifier
must reject.
"""

import math

from sl4witness import arith, params as params_mod
from sl4witness.params import (CASE_A, CASE_B, CASE_C, GroupParams,
                               classify_profile)
from sl4witness.witness import (Adjustment, CaseDInternals,
                                ConstructionError, Selection,
                                WitnessCertificate)


def fixed_point_exponent(p: int, exponents: tuple[int, ...],
                         selections: tuple[Selection, ...]) -> int:
    """sum over slots of p^i * (sum of selected exponents)."""
    total = 0
    for sel in selections:
        total += p**sel.factor * sum(exponents[j - 1] for j in sel.positions)
    return total


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


def compute_AB(profile: tuple[int, ...], params: GroupParams,
               selections: tuple[Selection, ...]) -> tuple[int, int]:
    """Coefficients (A, B) with total fixed-point exponent a*A + r*b*B."""
    eps, q, p = params.epsilon, params.q, params.p
    sigma_sum = 0
    tau_sum = 0
    for sel in selections:
        try:
            sigma, tau = _SHAPE_COEFFS[sel.positions]
        except KeyError:
            raise ValueError(f"selection {sel.positions} is not a case-D shape")
        sigma_sum += sigma * p**sel.factor
        tau_sum += tau * p**sel.factor
    return (1 + eps * q) * sigma_sum, tau_sum


def balance_two_parts(
    A: int,
    B: int,
    profile: tuple[int, ...],
    params: GroupParams,
    selections: tuple[Selection, ...],
) -> tuple[tuple[Selection, ...], int, int, tuple[Adjustment, ...]]:
    """Retouch selections until (A)_2 != (B)_2.

    When both 2-parts equal 2, flipping the lowest k_i in {1, 3} slot between
    positions 3 and 4 moves A by (1 + eps*q)*p^i and B by 2*p^i, which
    strictly raises both 2-parts; if they land equal again (now >= 4),
    trading a k_i = 2 slot between {1,2} and {3,4} moves A by
    2*(1 + eps*q)*p^i, whose 2-part is exactly 4, so A's 2-part changes while
    B stays put.  At most two touches are ever needed.
    """
    if arith.two_part(A) != arith.two_part(B):
        return selections, A, B, ()
    sels = list(selections)
    adjustments = []

    def recompute():
        return compute_AB(profile, params, tuple(sels))

    if arith.two_part(A) == 2:
        idx = next((n for n, s in enumerate(sels)
                    if profile[s.factor] in (1, 3)), None)
        if idx is None:
            raise ConstructionError("no k in {1,3} slot available to flip")
        sels[idx] = Selection(sels[idx].factor, _FLIP[sels[idx].positions])
        adjustments.append(Adjustment("flip", sels[idx].factor))
        A, B = recompute()
    if arith.two_part(A) == arith.two_part(B):
        idx = next((n for n, s in enumerate(sels)
                    if profile[s.factor] == 2), None)
        if idx is None:
            raise ConstructionError("no k = 2 slot available to swap")
        sels[idx] = Selection(sels[idx].factor, _SWAP[sels[idx].positions])
        adjustments.append(Adjustment("swap", sels[idx].factor))
        A, B = recompute()
    if A == 0 or B == 0 or arith.two_part(A) == arith.two_part(B):
        raise ConstructionError("2-part balancing failed")
    return tuple(sels), A, B, tuple(adjustments)


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


def construct(params: GroupParams, profile) -> WitnessCertificate:
    """Build a certificate for this profile; deterministic for fixed input."""
    profile = tuple(profile)
    case = classify_profile(profile, params)
    eps, p, q = params.epsilon, params.p, params.q
    case_d = None

    # never None: case D needs a mixed profile, so m >= 2 and q > 3
    n_ord = params_mod.target_orders(params, case)

    if case == CASE_A:
        exponents = tuple(v % n_ord for v in (1, eps * q, q * q, eps * q**3))
        selections = tuple(Selection(i, (1, 3))
                           for i, k in enumerate(profile) if k == 2)

    elif case == CASE_B:
        exponents = (1 % n_ord, (eps * q) % n_ord, (q * q) % n_ord, 0)
        selections = tuple(
            Selection(i, (4,) if k == 1 else (1, 2, 3))
            for i, k in enumerate(profile) if k in (1, 3)
        )

    elif case == CASE_C:
        exponents = (1, (eps * q) % n_ord, n_ord // 2, 0)
        base = {1: (4,), 2: (3, 4), 3: (1, 2, 4)}
        selections = tuple(Selection(i, base[k])
                           for i, k in enumerate(profile) if k > 0)
        total = fixed_point_exponent(p, exponents, selections) % n_ord
        if total != 0:
            if total != n_ord // 2:
                raise ConstructionError("case C sum is neither 0 nor N/2")
            # Trading the fixed value 1 for -1 in one odd slot shifts the
            # sum by N/2, which cancels it.
            sels = list(selections)
            idx = next((n for n, s in enumerate(sels)
                        if profile[s.factor] in (1, 3)), None)
            if idx is None:
                raise ConstructionError("no k in {1,3} slot available in case C")
            sels[idx] = Selection(sels[idx].factor, _FLIP[sels[idx].positions])
            selections = tuple(sels)

    else:  # CASE_D
        s2 = arith.two_part(params.q - params.epsilon)
        t = n_ord
        r = t // s2
        base = {1: (3,), 2: (1, 2), 3: (1, 2, 4)}
        selections = tuple(Selection(i, base[k])
                           for i, k in enumerate(profile) if k > 0)
        A, B = compute_AB(profile, params, selections)
        selections, A, B, adjustments = balance_two_parts(
            A, B, profile, params, selections)
        a, b = solve_ab(A, B, params, r)
        # The selected values are pairwise distinct mod t = r * s2.  r
        # divides q + eps, so mod r the exponents are (a, -a, 0, 0), and
        # every pair a case-D shape selects, except positions 3 and 4,
        # differs by a, -a or 2a, a unit since gcd(a, r) = 1 and r is odd.
        # Exponents 3 and 4 differ by 2*r*b + a*(1 + eps*q); (1 + eps*q)_2
        # is 2 as q = eps (mod 4), and a + b is odd, so the difference has
        # 2-part exactly 2 and is nonzero mod s2 >= 4.
        exponents = case_d_exponents(a, b, r, t, eps, q)
        case_d = CaseDInternals(r=r, t=t, a=a, b=b, coeff_a=A, coeff_rb=B,
                                adjustments=adjustments)

    if fixed_point_exponent(p, exponents, selections) % n_ord != 0:
        raise ConstructionError("fixed-point exponent does not vanish")
    return WitnessCertificate(
        params=params,
        profile=profile,
        case=case,
        theta_order=n_ord,
        exponents=exponents,
        selections=selections,
        claimed_order=n_ord,
        target_order=p * n_ord,
        case_d=case_d,
    )
