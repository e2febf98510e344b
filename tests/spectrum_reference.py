"""Per-type reference for the torus exponents of spectrum._omega_sets.

The library takes exp K and exp(K S/S) of each torus type in closed form.
This module derives them the long way, as the reference: the group

    K = {x in prod C_{q^d_i - eps^d_i} : prod N_{d_i}(x_i)^mu_i = 1}

is cut out by one relation row over Z/(q^12 - 1), an extended-Euclid
column reduction gives generators of its kernel, and the exponents are the
lcm of the generators' orders, and of their orders modulo scalars.
"""

import math

from sl4witness import spectrum


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
    big = spectrum._big_order(params)
    eps, q = params.epsilon, params.q
    moduli = [q**d - eps**d for d, _ in blocks]
    weights = [mu * (big // n) * spectrum._geom_sum(params, d) % big
               for (d, mu), n in zip(blocks, moduli)]
    exp_full = exp_proj = 1
    for gen in _relation_kernel(weights, big):
        embedded = [(d, x % n * (big // n))
                    for (d, _), x, n in zip(blocks, gen, moduli)]
        for _, x in embedded:
            exp_full = math.lcm(exp_full, big // math.gcd(big, x))
        xs = spectrum._eigen_exponents(params, embedded)
        exp_proj = math.lcm(exp_proj, spectrum._scalar_order(params, xs))
    return exp_full, exp_proj


def torus_exponents(params) -> list[tuple[int, int]]:
    """The reference counterpart of spectrum._torus_exponents."""
    return [_type_exponents(params, blocks) for blocks in spectrum._TYPES]
