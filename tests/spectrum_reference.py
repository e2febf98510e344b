"""References for the closed-form spectrum of spectrum.omega.

The brute-force enumeration is the reference the closed form is tested
against: enumerated_omega_sets() walks every determinant-one orbit
assignment and every Jordan partition of its multiplicities, so it checks
the largest-block shortcut too.  It is O(q^4) and capped at SPECTRUM_Q_CAP.
Its exponent arithmetic happens inside one cyclic group of order q^12 - 1,
which contains every q^d - (eps)^d for d <= 4 as a divisor; degree-d
exponents are embedded by the cofactor q^12 - 1 over their own modulus.

The library takes exp K and exp(K S/S) of each torus type in closed form.
torus_exponents() derives them the long way, per type: the group

    K = {x in prod C_{q^d_i - eps^d_i} : prod N_{d_i}(x_i)^mu_i = 1}

is cut out by one relation row over Z/(q^12 - 1), an extended-Euclid
column reduction gives generators of its kernel, and the exponents are the
lcm of the generators' orders, and of their orders modulo scalars.
"""

import math
from itertools import product

from sl4witness import spectrum
from sl4witness.params import GroupParams

# Bounds the enumeration, whose O(q^4) orbit walk takes about 2 s per group
# at q = 27; spectrum.omega() itself accepts every q that derive() does.
SPECTRUM_Q_CAP = 27


def _big_order(params: GroupParams) -> int:
    return params.q**12 - 1


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
    per_d = {d: spectrum.enumerate_orbits(params, d) for d in (1, 2, 3, 4)}
    geom = {d: _geom_sum(params, d) for d in (1, 2, 3, 4)}
    for split in spectrum._DIM_SPLITS:
        pools = [_block_choices(per_d[d], n)
                 for d, n in zip((1, 2, 3, 4), split) if n]
        for combo in product(*pools):
            blocks = tuple(b for group in combo for b in group)
            det = sum(mu * orb.embedded * geom[orb.d]
                      for orb, mu in blocks) % big
            if det == 0:
                yield blocks


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


def enumerated_omega_sets(params: GroupParams):
    """Reference for spectrum.omega, (SL, PSL): every determinant-one orbit
    assignment with exact orbit sizes and every Jordan partition of each
    multiplicity, walked one by one."""
    if params.q > SPECTRUM_Q_CAP:
        raise ValueError(
            f"spectrum enumeration is capped at q <= {SPECTRUM_Q_CAP}")
    p = params.p
    full: set[int] = set()
    proj: set[int] = set()
    for blocks in _semisimple_data(params):
        ss_order, k0 = _orders_for_blocks(params, blocks)
        for parts in product(*(spectrum._PARTITIONS[mu]
                               for _, mu in blocks)):
            up = spectrum._p_part(p, max(max(part) for part in parts))
            full.add(up * ss_order)
            proj.add(math.lcm(up, k0))
    return tuple(sorted(full)), tuple(sorted(proj))


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


def _type_exponents(params, blocks) -> tuple[int, int]:
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


def torus_exponents(params) -> list[tuple[int, int]]:
    """The reference counterpart of spectrum._torus_exponents."""
    return [_type_exponents(params, blocks) for blocks in spectrum._TYPES]
