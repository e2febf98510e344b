"""Exact element-order spectra of SL4^eps(q) and its projective quotient.

A group element is a commuting product of a semisimple part and a
unipotent part, and its order is

    p_part(largest Jordan block) * (order of the semisimple part)

The semisimple part is described by the Frobenius-twist orbits of its
eigenvalue exponents: an orbit of size d lives in the cyclic group of
order q^d - eps^d, and the eigenvalue multiset splits into orbits of
degrees d_i with multiplicities mu_i, sum d_i * mu_i = 4.  The unipotent
part commutes with it, so its largest Jordan block is any b up to
max(mu_i).

omega() works type by type, a type being the multiset of pairs (d, mu); the
eleven types correspond to the maximal tori of the group (Carter, Finite
Groups of Lie Type, 1985).  The semisimple elements of one type, degenerate
ones included, form the abelian group

    K = {x in prod_j C_{n_j} : prod_j N_{d_j}(x_j)^mu_j = 1}

where n_j = q^d_j - eps^d_j and N_d is the norm down to the base field.
The orders K attains are exactly the divisors of exp K, and those of
K S / S (S the scalars) the divisors of exp(K S / S).  Hence

    omega(SL)  = union over types, b <= max mu, of p_part(b) * Div(exp K)
    omega(PSL) = the same with exp(K S / S)

which is how Buturlakis, "Spectra of finite linear and unitary groups",
Algebra and Logic 47 (2008), describes these spectra.  A degenerate element
of K (orbits that collide or shrink) is a regular element of a coarser type
whose multiplicities are at least as large, so nothing outside the spectrum
is added.  In exponents det = sum +-mu_j x_j mod c, c = q - eps, so

    exp K        = lcm_j n_j * gcd(g_j, mu_j) / g_j
    exp(K S / S) = exp K / 2^delta

with g_j = gcd(c, mu_l : l != j), which is c for one block.  K n S is the
center, of order gcd(4, c); the comment at _TWO_DROPS argues delta per type.  test_10 checks that table for
every q <= Q_CAP, and must run again if Q_CAP is raised.  The cost does not
depend on q apart from factoring q - eps, q + eps, q^2 + eps*q + 1 and
q^2 + 1: both tables at q = 65521 take ~1.8 ms in a fresh process (2 vCPUs).

The brute-force enumeration is kept as the reference the closed form is
tested against: _enumerated_omega_sets() walks every determinant-one orbit
assignment and every Jordan partition of its multiplicities, so it checks
the largest-block shortcut too.  It is O(q^4) and capped at SPECTRUM_Q_CAP.
Its exponent arithmetic happens inside one cyclic group of order q^12 - 1,
which contains every q^d - (eps)^d for d <= 4 as a divisor; degree-d
exponents are embedded by the cofactor q^12 - 1 over their own modulus.
"""

import math
import re
from bisect import bisect_left
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from . import arith
from .params import GroupParams, derive_from_q, sign_from_str, sign_to_str

# Bounds only the reference enumeration, whose O(q^4) orbit walk takes
# about 2 s per group at q = 27; omega() itself accepts every q that
# derive() does.
SPECTRUM_Q_CAP = 27

GROUP_FULL = "SL"
GROUP_PROJECTIVE = "PSL"

# Total number of degree-d blocks, counted with multiplicity, for each way
# of filling dimension 4: index d-1 holds the count of degree-d blocks.
_DIM_SPLITS = (
    (4, 0, 0, 0),
    (2, 1, 0, 0),
    (0, 2, 0, 0),
    (1, 0, 1, 0),
    (0, 0, 0, 1),
)

_PARTITIONS = {
    1: ((1,),),
    2: ((2,), (1, 1)),
    3: ((3,), (2, 1), (1, 1, 1)),
    4: ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
}


class OrbitRep(NamedTuple):
    """Canonical representative of a twist orbit of exact size d."""

    d: int
    e: int         # smallest exponent in the orbit, mod q^d - eps^d
    embedded: int  # same value as an exponent mod q^12 - 1


def _big_order(params: GroupParams) -> int:
    return params.q**12 - 1


@lru_cache(maxsize=None)
def enumerate_orbits(params: GroupParams, d: int) -> tuple[OrbitRep, ...]:
    """All orbits of e -> eps*q*e mod q^d - eps^d having exact size d.

    Scanning exponents in increasing order makes the first-seen member the
    canonical representative.
    """
    if d not in (1, 2, 3, 4):
        raise ValueError("block degree must be 1..4")
    eps, q = params.epsilon, params.q
    modulus = q**d - eps**d
    mult = (eps * q) % modulus
    cofactor = _big_order(params) // modulus
    seen = bytearray(modulus)
    reps = []
    for x in range(modulus):
        if seen[x]:
            continue
        seen[x] = 1
        size = 1
        y = (x * mult) % modulus
        while y != x:
            seen[y] = 1
            size += 1
            y = (y * mult) % modulus
        if size == d:
            reps.append(OrbitRep(d=d, e=x, embedded=x * cofactor))
    return tuple(reps)


def _geom_sum(params: GroupParams, d: int) -> int:
    """1 + (eps*q) + ... + (eps*q)^(d-1), reduced mod q^12 - 1."""
    eps, q = params.epsilon, params.q
    return sum((eps * q)**j for j in range(d)) % _big_order(params)


def _block_choices(orbits, total):
    """Multisets of distinct orbits with multiplicities summing to total."""
    out = []
    acc = []

    def rec(start, remaining):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(orbits)):
            for mu in range(1, remaining + 1):
                acc.append((orbits[i], mu))
                rec(i + 1, remaining - mu)
                acc.pop()

    rec(0, total)
    return out


def _semisimple_data(params: GroupParams):
    """Determinant-one orbit assignments, in a fixed deterministic order."""
    big = _big_order(params)
    per_d = {d: enumerate_orbits(params, d) for d in (1, 2, 3, 4)}
    geom = {d: _geom_sum(params, d) for d in (1, 2, 3, 4)}
    for split in _DIM_SPLITS:
        pools = [_block_choices(per_d[d], n)
                 for d, n in zip((1, 2, 3, 4), split) if n]
        for combo in product(*pools):
            blocks = tuple(b for group in combo for b in group)
            det = sum(mu * orb.embedded * geom[orb.d]
                      for orb, mu in blocks) % big
            if det == 0:
                yield blocks


def _p_part(p: int, b: int) -> int:
    """Smallest power of p that is >= b: the order of a size-b Jordan block."""
    v = 1
    while v < b:
        v *= p
    return v


def _eigen_exponents(params: GroupParams, embedded) -> list[int]:
    """Exponents mod q^12 - 1 of all eigenvalues: each (d, x) pair
    contributes the twist orbit x, eps*q*x, ..., of length d."""
    big = _big_order(params)
    step = (params.epsilon * params.q) % big
    xs = []
    for d, x in embedded:
        for _ in range(d):
            xs.append(x)
            x = (x * step) % big
    return xs


def _scalar_order(params: GroupParams, xs) -> int:
    """Least k > 0 making the diagonal with eigenvalue exponents xs a
    scalar of order dividing q - eps: its order modulo scalars."""
    big = _big_order(params)
    quot = big // (params.q - params.epsilon)
    k_pairs = 1
    for u in range(len(xs)):
        for v in range(u + 1, len(xs)):
            diff = (xs[u] - xs[v]) % big
            k_pairs = math.lcm(k_pairs, big // math.gcd(big, diff))
    return k_pairs * (quot // math.gcd(quot, (xs[0] * k_pairs) % quot))


def _orders_for_blocks(params: GroupParams, blocks) -> tuple[int, int]:
    """(semisimple order, least k making the semisimple part scalar)."""
    big = _big_order(params)
    ss_order = 1
    for orb, _mu in blocks:
        ss_order = math.lcm(ss_order, big // math.gcd(big, orb.embedded))
    xs = _eigen_exponents(params, [(orb.d, orb.embedded) for orb, _ in blocks])
    return ss_order, _scalar_order(params, xs)


def _enumerated_omega_sets(params: GroupParams):
    """Reference for _omega_sets: every determinant-one orbit assignment
    with exact orbit sizes and every Jordan partition of each multiplicity,
    walked one by one."""
    if params.q > SPECTRUM_Q_CAP:
        raise ValueError(
            f"spectrum enumeration is capped at q <= {SPECTRUM_Q_CAP}")
    p = params.p
    full: set[int] = set()
    proj: set[int] = set()
    for blocks in _semisimple_data(params):
        ss_order, k0 = _orders_for_blocks(params, blocks)
        for parts in product(*(_PARTITIONS[mu] for _, mu in blocks)):
            up = _p_part(p, max(max(part) for part in parts))
            full.add(up * ss_order)
            proj.add(math.lcm(up, k0))
    return tuple(sorted(full)), tuple(sorted(proj))


# The eleven semisimple types: for each way of filling dimension 4 with
# degree-d blocks, one partition of each block count into the
# multiplicities of distinct orbits.  A type is a tuple of (d, mu).
_TYPES = tuple(
    tuple(block for group in parts for block in group)
    for split in _DIM_SPLITS
    for parts in product(*(
        [tuple((d, mu) for mu in part) for part in _PARTITIONS[n]]
        for d, n in zip((1, 2, 3, 4), split) if n))
)


# Per type, each block's (d, mu, gcd of the other blocks' mu), 0 if none.
_TYPE_BLOCKS = tuple(
    tuple((d, mu, math.gcd(*(m for _, m in blocks[:j] + blocks[j + 1:])))
          for j, (d, mu) in enumerate(blocks))
    for blocks in _TYPES
)

# delta per type in exp(K S/S) = exp K / 2^delta, keyed by |Z| = gcd(4, c),
# c = q - eps, c2 its 2-part.  Z = K n S is a 2-group: odd parts stay.
# - Cyclic K (types 0, 1, 7, 9, 10): K/Z is cyclic, so delta = log2 |Z|.
# - Two mu = 1 rational blocks (3, 4, 6): each coordinate takes its full
#   order on an element with an eigenvalue 1 ((x, -x) on those two blocks),
#   whose scalar powers are 1: delta = 0.
# - Type 2, det 2x + 2y: y = t*c/2 - x, and the eigenvalue ratio
#   2x - t*c/2 is a unit mod c for some x, t iff c/2 is odd.
# - Type 5, det a^2 y^(1 + eps*q): if c = 2 mod 4, a = 1 and y in the norm
#   kernel keep the 2-part; if 4 | c, 1 + eps*q = 2 mod 4 ties the 2-power
#   orders of a and y, whose c2/2-th powers then agree: delta = 1.
# - Type 8, det N(y) N(z): y, z reach the 2-part of M = q^2 - 1 together,
#   with y^(M/2) = z^(M/2) = -1, and (y, 1/y) keeps M/2: delta = 1.
# The tests check every entry against a kernel reduction for q <= Q_CAP.
_TWO_DROPS = {
    2: (1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    4: (2, 2, 1, 0, 0, 1, 0, 2, 1, 2, 2),
}


def _torus_exponents(params: GroupParams) -> list[tuple[int, int]]:
    """(exp K, exp K S/S) for each type of _TYPES, in closed form."""
    eps, q = params.epsilon, params.q
    c = q - eps
    moduli = {d: q**d - eps**d for d in (1, 2, 3, 4)}
    out = []
    for blocks, drop in zip(_TYPE_BLOCKS, _TWO_DROPS[math.gcd(4, c)]):
        exp_full = 1
        for d, mu, others in blocks:
            g = math.gcd(c, others)
            exp_full = math.lcm(exp_full, moduli[d] * math.gcd(g, mu) // g)
        out.append((exp_full, exp_full >> drop))
    return out


def _prime_support(params: GroupParams) -> set[int]:
    """Primes dividing q^d - eps^d for some d <= 4: these values factor
    into q - 1, q + 1, q^2 + eps*q + 1 and q^2 + 1."""
    q = params.q
    found = set()
    for n in (q - 1, q + 1, params.phi3, params.phi4):
        found.update(arith.prime_divisors(n))
    return found


def _divisors(n: int, primes) -> list[int]:
    """All divisors of n, whose prime factors all lie in primes."""
    divs = [1]
    for r in primes:
        new = divs
        while n % r == 0:
            n //= r
            new = [v * r for v in new]
            divs = divs + new
    if n != 1:
        raise ArithmeticError(f"{n} is not covered by the given primes")
    return divs


@lru_cache(maxsize=8)  # one request needs one group's tables
def _omega_sets(params: GroupParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed form: p_part(b) * Div(exponent) over the torus types."""
    full_gens: set[tuple[int, int]] = set()
    proj_gens: set[tuple[int, int]] = set()
    for blocks, (exp_full, exp_proj) in zip(_TYPES, _torus_exponents(params)):
        max_mu = max(mu for _, mu in blocks)
        for b in range(1, max_mu + 1):
            up = _p_part(params.p, b)
            full_gens.add((up, exp_full))
            proj_gens.add((up, exp_proj))

    primes = _prime_support(params)

    def orders(gens):
        return tuple(sorted({up * v for up, e in gens
                             for v in _divisors(e, primes)}))

    return orders(full_gens), orders(proj_gens)


def omega(params: GroupParams, group: str = GROUP_FULL) -> tuple[int, ...]:
    """All element orders of the chosen flavor, ascending."""
    full, proj = _omega_sets(params)
    if group == GROUP_FULL:
        return full
    if group == GROUP_PROJECTIVE:
        return proj
    raise ValueError(f"unknown group flavor {group!r}")


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


_DUMP_HEADER = re.compile(r"^# epsilon=([+-]) q=([0-9]+) group=(SL|PSL)$")


def format_dump(params: GroupParams, group: str = GROUP_PROJECTIVE) -> str:
    """One header line, then the orders in ascending decimal, one per line."""
    orders = omega(params, group)
    head = f"# epsilon={sign_to_str(params.epsilon)} q={params.q} group={group}"
    return "\n".join([head, *map(str, orders)]) + "\n"


def parse_dump(text: str):
    """Inverse of format_dump; returns (params, group, orders)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty spectrum dump")
    got = _DUMP_HEADER.match(lines[0])
    if not got:
        raise ValueError(f"bad spectrum header: {lines[0]!r}")
    eps = sign_from_str(got.group(1))
    params = derive_from_q(eps, int(got.group(2)))
    body = lines[1:]
    if not all(ln.isascii() and ln.isdigit() and ln[0] != "0"
               and len(ln) <= arith.MAX_DIGITS for ln in body):
        raise ValueError("spectrum orders must be positive ASCII decimals "
                         f"of at most {arith.MAX_DIGITS} digits")
    orders = tuple(map(int, body))
    if any(a >= b for a, b in zip(orders, orders[1:])) or not orders:
        raise ValueError("spectrum orders must be strictly ascending")
    return params, got.group(3), orders
