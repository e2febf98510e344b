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

    K = {x in prod C_{q^d_i - eps^d_i} : prod N_{d_i}(x_i)^mu_i = 1}

where N_d is the norm down to the base field.  K is cut out by one relation
row, so an extended-Euclid column reduction gives its generators, and the
orders K attains are exactly the divisors of exp K; in the projective group
the same holds for the image of K modulo scalars.  Hence

    omega(SL)  = union over types, b <= max mu, of p_part(b) * Div(exp K)
    omega(PSL) = the same with exp(K S / S), S the scalar matrices

which is how Buturlakis, "Spectra of finite linear and unitary groups",
Algebra and Logic 47 (2008), describes these spectra.  A degenerate element
of K (orbits that collide or shrink) is a regular element of a coarser type
whose multiplicities are at least as large, so nothing outside the spectrum
is added.  The cost is independent of q apart from factoring the cyclotomic
values q - eps, q + eps, q^2 + eps*q + 1 and q^2 + 1.

The brute-force enumeration is kept as the reference the closed form is
tested against: _enumerated_omega_sets() walks every determinant-one orbit
assignment and every Jordan partition of its multiplicities, so it checks
the largest-block shortcut too.  It is O(q^4) and capped at SPECTRUM_Q_CAP.

All exponent arithmetic happens inside one cyclic group of order q^12 - 1,
which contains every q^d - (eps)^d for d <= 4 as a divisor; degree-d
exponents are embedded by the cofactor q^12 - 1 over their own modulus.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

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


@dataclass(frozen=True)
class OrbitRep:
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        quo, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    return a, s0, t0


def _relation_kernel(weights, modulus: int) -> list[list[int]]:
    """Generators of {x in Z^k : sum w_i x_i = 0 mod modulus}.

    Unimodular column operations (extended Euclid, one column at a time)
    turn the row [w_1 .. w_k, modulus] into [g, 0, .., 0]; the columns of
    the transform that end at 0 are a basis of the row's kernel in
    Z^(k+1), and dropping their last coordinate gives the solutions.
    """
    k = len(weights)
    row = [*weights, modulus]
    cols = [[int(i == j) for i in range(k + 1)] for j in range(k + 1)]
    for j in range(1, k + 1):
        a, b = row[0], row[j]
        if b == 0:
            continue
        g, s, t = _xgcd(a, b)
        c0, cj = cols[0], cols[j]
        cols[0] = [s * u + t * v for u, v in zip(c0, cj)]
        cols[j] = [(b // g) * u - (a // g) * v for u, v in zip(c0, cj)]
        row[0], row[j] = g, 0
    return [col[:k] for col in cols[1:]]


def _type_exponents(params: GroupParams, blocks) -> tuple[int, int]:
    """(exp K, exp K S/S) for the torus-type group K of these blocks."""
    big = _big_order(params)
    eps, q = params.epsilon, params.q
    moduli = [q**d - eps**d for d, _ in blocks]
    weights = [mu * (big // n) * _geom_sum(params, d) % big
               for (d, mu), n in zip(blocks, moduli)]
    exp_full = exp_proj = 1
    for gen in _relation_kernel(weights, big):
        embedded = [(d, x % n * (big // n))
                    for (d, _), x, n in zip(blocks, gen, moduli)]
        for _, x in embedded:
            exp_full = math.lcm(exp_full, big // math.gcd(big, x))
        xs = _eigen_exponents(params, embedded)
        exp_proj = math.lcm(exp_proj, _scalar_order(params, xs))
    return exp_full, exp_proj


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
        power, rest = 1, []
        while n % r == 0:
            n //= r
            power *= r
            rest.extend(v * power for v in divs)
        divs.extend(rest)
    if n != 1:
        raise ArithmeticError(f"{n} is not covered by the given primes")
    return divs


@lru_cache(maxsize=None)
def _omega_sets(params: GroupParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Closed form: p_part(b) * Div(exponent) over the torus types."""
    full_gens: set[tuple[int, int]] = set()
    proj_gens: set[tuple[int, int]] = set()
    for blocks in _TYPES:
        exp_full, exp_proj = _type_exponents(params, blocks)
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
    orders: x divides some attained order."""
    if x < 1:
        raise ValueError("order must be positive")
    return any(o % x == 0 for o in orders)


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
