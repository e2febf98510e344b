"""Field arithmetic and realization tests."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from sl4witness import arith, cli, ffield, params, spectrum, witness
from sl4witness.ffield import RealizationError


def schoolbook_mul(field, a, b):
    """Reference product: the k^2 coefficient products, then degrees >= k
    folded down one at a time with x^k = -(lower part of the modulus)."""
    p, k = field.p, field.k
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    xk = [(-c) % p for c in field.modulus[:k]]
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg] % p
        for j, rj in enumerate(xk):
            prod[deg - k + j] += c * rj
    return tuple(c % p for c in prod[:k])


def full_scan_element_of_order(field, n):
    """Reference: the first index from 1 whose element, raised to the
    cofactor, has exact order n by the prime-divisor test."""
    cofactor = (field.order - 1) // n
    for idx in range(1, field.order):
        y = field.pow(field.element(idx), cofactor)
        if ffield._order_dividing(field, (y,), n) == n:
            return y
    raise AssertionError("no element of that order")


def stepwise_orders(mats, q):
    """Reference order search: walk g, g^2, ... one batched matmul per step,
    taking each row's first scalar power (projective order) and first
    identity power (order)."""
    count = len(mats)
    full = np.zeros(count, dtype=np.int64)
    proj = np.zeros(count, dtype=np.int64)
    # active, powers, bases and unseen (no projective order yet) stay
    # compacted to the rows whose identity power is still to come
    active = np.arange(count)
    powers = bases = mats
    unseen = np.ones(count, dtype=bool)
    off_diagonal = ~np.eye(4, dtype=bool)
    k = 1
    while True:
        diag = np.einsum("nii->ni", powers)
        scalar = (~powers[:, off_diagonal].any(axis=1)
                  & (diag == diag[:, :1]).all(axis=1))
        newly_scalar = scalar & unseen
        proj[active[newly_scalar]] = k
        unseen &= ~newly_scalar
        ident = scalar & (diag[:, 0] == 1)
        if ident.any():
            full[active[ident]] = k
            keep = ~ident
            if not keep.any():
                break
            active, powers, bases, unseen = (
                active[keep], powers[keep], bases[keep], unseen[keep])
        powers = np.matmul(powers, bases) % q
        k += 1
        if k > 100_000:  # no order in SL4(5) comes near this
            raise RealizationError("order search exceeded the step cap")
    return full.tolist(), proj.tolist()


def square_and_multiply(field, a, e):
    """Reference power: one squaring per bit of e, with field.mul."""
    result = field.one
    while e:
        if e & 1:
            result = field.mul(result, a)
        a = field.mul(a, a)
        e >>= 1
    return result


def sub(field, a, b):
    """a - b, coefficient by coefficient mod p."""
    return tuple((x - y) % field.p for x, y in zip(a, b))


def poly_gcd(a, b, p):
    """Reference gcd of little-endian coefficient lists over F_p."""
    a, b = list(a), list(b)
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return a
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
            a.pop()  # the leading coefficient is now zero
        a, b = b, a


def benor_is_irreducible(p, modulus):
    """Reference Ben-Or test of the monic modulus of degree k: a gcd of
    f with x^(p^i) - x at every pass i <= k // 2."""
    k = len(modulus) - 1
    if k == 1:
        return True
    ring = ffield.Field(p, k, tuple(modulus))
    x = u = (0, 1) + (0,) * (k - 2)
    for _ in range(k // 2):
        u = square_and_multiply(ring, u, p)
        if len(poly_gcd(sub(ring, u, x), modulus, p)) > 1:
            return False
    return True


def poly_mul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return tuple(prod)


def monic_polys(p, k):
    for idx in range(p**k):
        yield (*ffield._digits(idx, p, k), 1)


def first_irreducibles(p, k, count):
    """The first count monic irreducibles of degree k over F_p in counter
    order, binomials and polynomials with roots included."""
    found = []
    for modulus in monic_polys(p, k):
        if benor_is_irreducible(p, modulus):
            found.append(modulus)
            if len(found) == count:
                return found
    raise AssertionError("too few irreducibles")


def counter_scan_modulus(p, k):
    """Reference modulus: the first monic irreducible of degree k."""
    return first_irreducibles(p, k, 1)[0]


def test_build_field_frozen_moduli():
    assert ffield.build_field(3, 1).modulus == (0, 1)
    assert ffield.build_field(3, 2).modulus == (1, 0, 1)


def test_build_field_matches_counter_scan():
    # covers fields where Thm 3.75 rules the binomial block out (e.g.
    # k = 3 at p = 5, k = 4 at p = 7) and where it does not (k = 12 at
    # p = 13 and 37, where x^12 + c can be irreducible)
    for p in range(3, 38, 2):
        if not arith.is_prime(p):
            continue
        for k in (*range(1, 13), 24, 36):
            if p**k <= arith.SIZE_LIMIT:
                assert ffield.build_field(p, k).modulus == \
                    counter_scan_modulus(p, k), (p, k)
    # larger p, where Thm 3.75 leaves the binomials in (else the reference
    # scans p of them one by one) and the root sieve evaluates p points per
    # block
    for p, k in ((433, 6), (509, 4), (521, 4), (1033, 12), (65521, 2),
                 (65521, 3), (65521, 6)):
        assert ffield.build_field(p, k).modulus == \
            counter_scan_modulus(p, k), (p, k)


@pytest.mark.parametrize("p", [1607, 1613])
def test_build_field_skips_ruled_out_binomials(p, monkeypatch):
    # 3 | 12 but 3 does not divide p - 1, so no x^12 + c is irreducible;
    # the full counter scan tests more than 1600 candidates here
    tested = []
    check = ffield._is_irreducible

    def counting(ring):
        tested.append(ring.modulus)
        return check(ring)

    monkeypatch.setattr(ffield, "_is_irreducible", counting)
    field = ffield.build_field.__wrapped__(p, 12)
    assert len(tested) <= 20
    assert field.modulus == tested[-1]
    assert all(any(m[1:12]) for m in tested)  # no binomial was tested


def count_irreducible(p, k):
    """Gauss's count of monic irreducibles of degree k over F_p."""
    def mobius(n):
        sign = 1
        for r in arith.prime_divisors(n) if n > 1 else []:
            if n % (r * r) == 0:
                return 0
            sign = -sign
        return sign
    return sum(mobius(d) * p ** (k // d)
               for d in range(1, k + 1) if k % d == 0) // k


@pytest.mark.parametrize("p,degrees", [(3, range(2, 7)), (5, range(2, 5)),
                                       (7, range(2, 5))])
def test_is_irreducible_matches_reference_on_every_monic(p, degrees):
    for k in degrees:
        found = 0
        for modulus in monic_polys(p, k):
            got = ffield._is_irreducible(ffield.Field(p, k, modulus))
            assert got == benor_is_irreducible(p, modulus), modulus
            found += got
        assert found == count_irreducible(p, k), (p, k)


@pytest.mark.parametrize("p,k", [(3, 12), (5, 10), (7, 8), (3, 24)])
def test_is_irreducible_rejects_products_of_two_irreducibles(p, k):
    # a factor of degree d is found at pass d; the products with d = k / 2,
    # and its square, leave no factor to find at an earlier pass
    for d in range(1, k // 2 + 1):
        first, second = first_irreducibles(p, d, 2)
        cofactor = counter_scan_modulus(p, k - d)
        products = [poly_mul(first, cofactor, p)]
        if 2 * d == k:
            products += [poly_mul(first, second, p), poly_mul(first, first, p)]
        for modulus in products:
            assert len(modulus) == k + 1
            assert not ffield._is_irreducible(ffield.Field(p, k, modulus))
            assert not benor_is_irreducible(p, modulus)
    assert ffield._is_irreducible(
        ffield.Field(p, k, counter_scan_modulus(p, k)))


@pytest.mark.parametrize("p,k,bound", [(23, 12, 34), (5, 24, 46), (5, 36, 44)])
def test_build_field_sieves_out_roots(p, k, bound, monkeypatch):
    # the counter scan without the sieve runs Ben-Or on 190, 142 and 138
    # candidates here, most of them with a root in F_p
    tested = []
    check = ffield._is_irreducible

    def counting(ring):
        tested.append(ring.modulus)
        return check(ring)

    monkeypatch.setattr(ffield, "_is_irreducible", counting)
    field = ffield.build_field.__wrapped__(p, k)
    assert len(tested) <= bound
    assert field.modulus == tested[-1] == counter_scan_modulus(p, k)
    for modulus in tested:
        for a in range(p):
            assert sum(c * pow(a, j, p) for j, c in enumerate(modulus)) % p


def test_build_field_refuses_oversized_fields_promptly():
    start = time.perf_counter()
    for p, k in ((3, 200000), (3, 81), (1627, 12), (2**61 - 1, 10**18)):
        with pytest.raises(ValueError):
            ffield.build_field(p, k)
    assert time.perf_counter() - start < 2.0
    # 3^80 and 1621^12 are the largest such fields within SIZE_LIMIT
    assert 3**80 <= arith.SIZE_LIMIT < 3**81
    assert 1621**12 <= arith.SIZE_LIMIT < 1627**12


def test_build_field_validation():
    with pytest.raises(ValueError):
        ffield.build_field(4, 2)
    with pytest.raises(ValueError):
        ffield.build_field(3, 0)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (3, 12)])
def test_field_axioms_seeded(p, k):
    field = ffield.build_field(p, k)
    rnd = random.Random(1000 * p + k)
    for _ in range(60):
        x = field.element(rnd.randrange(field.order))
        y = field.element(rnd.randrange(field.order))
        z = field.element(rnd.randrange(field.order))
        assert field.add(x, y) == field.add(y, x)
        assert field.mul(x, y) == field.mul(y, x)
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(
            field.mul(x, y), field.mul(x, z))
        assert field.add(x, sub(field, field.zero, x)) == field.zero
        if x != field.zero:
            assert field.pow(x, field.order - 1) == field.one


def random_monic(rnd, p, k):
    """A random monic polynomial of degree k with no zero coefficient."""
    return (*(rnd.randrange(1, p) for _ in range(k)), 1)


def dense_moduli(p, k, rnd):
    """Dense monic moduli of degree k: two random ones, and the product of
    two random dense factors, which is reducible."""
    split = max(k // 3, 1)
    product = poly_mul(random_monic(rnd, p, split),
                       random_monic(rnd, p, k - split), p)
    return [random_monic(rnd, p, k), random_monic(rnd, p, k), product]


@pytest.mark.parametrize("p,k", [(3, 12), (3, 36), (5, 36), (7, 24),
                                 (31, 12), (1621, 12), (2, 5), (3, 2)])
def test_packed_mul_matches_schoolbook(p, k):
    # (1621, 12) has the widest slots realize can reach: 1621^12 is the
    # largest p^12 within SIZE_LIMIT.  The counter-scan modulus has at most
    # 4 nonzero lower terms, so the Barrett quotient mu = x^(2k-2) div f is
    # sparse too; the dense moduli, reducible ones included, give a dense mu
    rnd = random.Random(100 * p + k)
    fields = [ffield.build_field(p, k)]
    fields += [ffield.Field(p, k, f) for f in dense_moduli(p, k, rnd)]
    for field in fields:
        top = (p - 1,) * k  # every slot of top * top sums k terms (p - 1)^2
        pairs = [(top, top), (top, field.one), (field.zero, top)]
        pairs += [(field.element(rnd.randrange(field.order)),
                   field.element(rnd.randrange(field.order)))
                  for _ in range(200)]
        for a, b in pairs:
            assert field.mul(a, b) == schoolbook_mul(field, a, b), \
                field.modulus


@pytest.mark.parametrize("p,k", [(3, 36), (5, 12), (1621, 12)])
def test_pow_matches_square_and_multiply_on_dense_moduli(p, k):
    # the Frobenius rows x^(pj) are reduced modulo a dense, possibly
    # reducible modulus here; p^(k+4) - 1 takes the Frobenius route
    # except at p = 1621
    rnd = random.Random(7 * p + k)
    for modulus in dense_moduli(p, k, rnd):
        field = ffield.Field(p, k, modulus)
        for e in (p ** (k + 4) - 1, rnd.randrange(p**k, 3 * p**k)):
            a = field.element(rnd.randrange(field.order))
            assert field.pow(a, e) == square_and_multiply(field, a, e)


def slot_bound(p, k):
    """V = k (p - 1)^2 + p, the largest slot value _red must reduce."""
    return k * (p - 1) ** 2 + p


def realizable_fields():
    """(p, k) of every field realize can build: F_{p^(12m)} within
    SIZE_LIMIT."""
    primes = [p for p in range(2, 1700)
              if arith.is_prime(p) and p**12 <= arith.SIZE_LIMIT]
    assert primes[-1] == 1621
    return [(p, k) for p in primes for k in range(12, 12 * 11, 12)
            if p**k <= arith.SIZE_LIMIT]


def test_packed_slots_hold_every_realizable_field():
    # the slot width is the least w in 8, 16, 32, 64, 128 with V M < 2^w,
    # where s = bit_length(V (p - 1)) and M = ceil(2^s / p): then every
    # slot's v M fits its slot and floor(v M / 2^s) = floor(v / p) for
    # v <= V.  The modulus does not affect the width.
    cases = realizable_fields() + [(63689, 6), (4294967291, 1)]
    for p, k in cases:
        field = ffield.Field(p, k, (0,) * k + (1,))
        bound = slot_bound(p, k)
        shift = (bound * (p - 1)).bit_length()
        magic = -(-(1 << shift) // p)
        assert (field._shift, field._magic) == (shift, magic), (p, k)
        width = field._width
        assert bound * magic < 2**width, (p, k)
        assert width == 8 or bound * magic >= 2 ** (width // 2), (p, k)
    assert ffield.Field(4294967291, 1, (0, 1))._width == 128
    # past 2^32, V M no longer fits 128 bits
    with pytest.raises(ValueError):
        ffield.Field(2**32 + 15, 1, (0, 1))


def edge_values(p, bound):
    """0, p - 1, p, the multiples of p near bound and their neighbours, and
    bound itself: the slot values where a quotient could first go wrong."""
    top = bound // p
    near = {j * p + d for j in range(max(top - 3, 1), top + 1)
            for d in (-1, 0, 1)}
    return sorted({0, p - 1, p, bound} | {v for v in near if v <= bound})


def test_red_matches_mod_at_slot_edges():
    # _red sees up to 2k - 1 slots (a product); fill 2k of them with the
    # edge values in turn, so that each value sits in the lowest and the
    # highest slot in some round
    for p, k in realizable_fields() + [(63689, 6), (4294967291, 1)]:
        field = ffield.Field(p, k, (0,) * k + (1,))
        width = field._width
        values = edge_values(p, slot_bound(p, k))
        for rot in range(len(values)):
            slots = [values[(rot + i) % len(values)] for i in range(2 * k)]
            packed = sum(v << (width * i) for i, v in enumerate(slots))
            got = field._red(packed)
            assert [(got >> (width * i)) & ((1 << width) - 1)
                    for i in range(2 * k)] == [v % p for v in slots], (p, k)
            assert got >> (2 * k * width) == 0


@pytest.mark.parametrize("p,k", [(3, 12), (5, 36), (31, 12), (1621, 12)])
def test_packed_gcd_matches_reference(p, k):
    # pairs with a planted common factor of each degree, and coprime ones;
    # _gcd does not make its result monic, so compare up to a scalar
    rnd = random.Random(11 * p + k)
    field = ffield.build_field(p, k)

    def monic(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        inv = pow(c[-1], -1, p)
        return [x * inv % p for x in c]

    for d in range(0, k // 2 + 1):
        common = random_monic(rnd, p, d)
        a = poly_mul(common, random_monic(rnd, p, k - d), p)
        b = poly_mul(common, random_monic(rnd, p, k - d - 1), p)
        got = field._gcd(field._pack(a), field._pack(b))
        width = field._width
        slots = [(got >> (width * i)) & ((1 << width) - 1)
                 for i in range(k + 1)]
        assert monic(slots) == monic(poly_gcd(a, b, p)), d


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (3, 36), (5, 36),
                                 (23, 12), (1613, 12)])
def test_pow_matches_square_and_multiply(p, k):
    # e = p^(k+4) - 1 has only digits p - 1, so every field but the one
    # at p = 1613 takes the Frobenius route there; p = 1613 never does
    field = ffield.build_field(p, k)
    rnd = random.Random(10 * p + k)
    exponents = [0, 1, p - 1, p, p * p, p**k - 2, p ** (k + 4) - 1]
    exponents += [rnd.randrange(3 * p**k) for _ in range(8)]
    bases = [field.one, field.zero, field.element(p - 1)]
    bases += [field.element(rnd.randrange(field.order)) for _ in range(4)]
    for e in exponents:
        for a in bases:
            assert field.pow(a, e) == square_and_multiply(field, a, e), e
    assert (field._frob is not None) == (p != 1613)


def test_field_has_primitive_root():
    # existence of an element of full multiplicative order certifies that
    # the scanned modulus really is irreducible
    for p, k in ((3, 2), (3, 3), (5, 2), (7, 2)):
        field = ffield.build_field(p, k)
        g = ffield.element_of_order(field, field.order - 1)
        assert field.pow(g, field.order - 1) == field.one


def test_element_of_order_exact():
    field = ffield.build_field(3, 2)
    from sl4witness import arith
    for n in (1, 2, 4, 8):
        y = field.pow(ffield.element_of_order(field, n), 1)
        assert field.pow(y, n) == field.one
        if n > 1:
            for pp in arith.factorize(n):
                assert field.pow(y, n // pp.prime) != field.one
    with pytest.raises(ValueError):
        ffield.element_of_order(field, 3)  # 3 does not divide 8


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (13, 2), (7, 1),
                                 (7, 3), (3, 6)])
def test_element_of_order_matches_full_scan(p, k):
    # every n dividing Q - 1: n = 1, n = Q - 1, n | p - 1, where constants
    # may qualify, and n not dividing p - 1, where the scan skips them
    field = ffield.build_field(p, k)
    for n in range(1, field.order):
        if (field.order - 1) % n == 0:
            y = ffield.element_of_order(field, n)
            assert y == full_scan_element_of_order(field, n)
            if (p - 1) % n:
                assert any(y[1:])  # never a constant


def test_element_of_order_can_be_a_constant():
    # in F_49 the cofactor for n = 3 is 16, and the constant 2 has order 3
    # in F_7 with 2^16 = 2, so the scan must not skip the constants
    field = ffield.build_field(7, 2)
    assert ffield.element_of_order(field, 3) == (2, 0)


def test_element_index_validation():
    field = ffield.build_field(3, 2)
    with pytest.raises(ValueError):
        field.element(-1)
    with pytest.raises(ValueError):
        field.element(9)


def test_matrix_ops():
    field = ffield.build_field(3, 2)
    identity = ffield.diagonal(field, (field.one,) * 4).rows
    two = field.element(2)
    scal = ffield.diagonal(field, (two, two, two, two))
    assert scal.rows != identity
    assert scal.mul(scal).mul(scal).rows == ffield.diagonal(
        field, tuple(field.pow(two, 3) for _ in range(4))).rows
    g = ffield.element_of_order(field, 8)
    d = ffield.diagonal(field, (g, g, g, g))
    acc = d
    for _ in range(7):
        assert acc.rows != identity
        acc = acc.mul(d)
    assert acc.rows == identity


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2)])
def test_order_dividing_matches_repeated_multiplication(p, k):
    field = ffield.build_field(p, k)
    rnd = random.Random(10 * p + k)
    bound = field.order - 1
    for _ in range(100):
        entries = tuple(field.element(rnd.randrange(1, field.order))
                        for _ in range(4))
        acc, order = entries, 1
        while acc != (field.one,) * 4:
            acc = tuple(field.mul(a, v) for a, v in zip(acc, entries))
            order += 1
        assert ffield._order_dividing(field, entries, bound) == order
        assert ffield._order_dividing(field, entries, 2 * bound) == order
        if order > 1:
            assert ffield._order_dividing(field, entries, order - 1) is None


def test_realize_worked_example():
    cert = witness.construct(params.derive(1, 3, 2), (2, 2))
    mat = ffield.realize(cert)
    field = mat.field
    # diagonal with determinant one and the certified multiplicative order
    dets = field.one
    for i in range(4):
        dets = field.mul(dets, mat.rows[i][i])
    assert dets == field.one
    # repeated multiplication is the reference for the prime-divisor test:
    # the first identity power is exactly the claimed order
    identity = ffield.diagonal(field, (field.one,) * 4).rows
    acc = mat
    for _ in range(1, cert.claimed_order):
        assert acc.rows != identity
        acc = acc.mul(mat)
    assert acc.rows == identity


# sha256 of repr((p, k, modulus, rows)) of the realized matrix for one grid
# certificate over each field the benchmark's crosscheck realizes, recorded
# from the scan without a root sieve and from square-and-multiply powers
REALIZED_DIGESTS = {
    (-1, 3, 1, (0,)):
        "dd56fc88a9606ee8f047450ba908b995dbc65387b297bcc35ea736cee6c33884",
    (1, 3, 2, (3, 3)):
        "f170de45c646325bb14908cf062104285a4065cc4981013c2bfcc67358d91e3f",
    (1, 3, 3, (2, 0, 0)):
        "cee49fbcd3de1233485554d7f46c1fccf02451e609f51aec6d93b74e08da63fe",
    (1, 5, 2, (1, 2)):
        "560bcdf148228f6a5b5037bd6abed9cbee5a021b13bb6db084e03c553b3eda2b",
    (-1, 5, 3, (1, 2, 0)):
        "c3a5873bcc88638fdc231dc4168acc6b58a71a304cd300d9a6b054551237db85",
    (-1, 7, 2, (1, 0)):
        "6ce4219028eeeddb36fcf8f16c5b6fe011a34975f7720ab74aba57ac5c08cf19",
    (-1, 11, 1, (0,)):
        "2514fef4e542f77276270cf5cbbe0b824494ff1bc71c6049a4d93a0715d3e194",
    (1, 11, 2, (1, 1)):
        "9a4b52b3d017bda2dd01f977bd2e4d11d3bab05cc6bd283bce4cc37e795f0e01",
    (-1, 17, 1, (0,)):
        "cff4096bdceac4423d9c67e8306e7e20eee928a9202ab269706c96ac1d9dbd2c",
    (-1, 23, 1, (1,)):
        "4c790711bb33ec6e030bdc276bc780f570c9cfa683f80c04db196756e3be59e3",
    (1, 29, 1, (2,)):
        "e3a62cf0e35bd0874642672742d42157a932f9673fcaa12931003ef0d7499992",
    (1, 31, 1, (0,)):
        "7d4af7868657d92801d675af980ce64bf91492bf2df0d8ad0830be9c6aafaf2b",
}


@pytest.mark.parametrize("key", sorted(REALIZED_DIGESTS))
def test_realized_matrices_unchanged(key):
    eps, p, m, profile = key
    mat = ffield.realize(witness.construct(params.derive(eps, p, m), profile))
    text = repr((mat.field.p, mat.field.k, mat.field.modulus, mat.rows))
    assert hashlib.sha256(text.encode()).hexdigest() == REALIZED_DIGESTS[key]


def test_realize_rejects_tampered_order():
    cert = witness.construct(params.derive(1, 3, 1), (2,))
    bad = cert._replace(
        claimed_order=cert.claimed_order * 2,
        target_order=cert.target_order * 2)
    with pytest.raises(RealizationError):
        ffield.realize(bad)


def test_realize_size_limit():
    cert = witness.construct(params.derive(1, 13, 3), (1, 1, 1))
    with pytest.raises(RealizationError):
        ffield.realize(cert)  # 13^36 overruns the default ceiling
    with pytest.raises(ValueError, match="exceeds the size limit"):
        ffield.build_field(13, 36)  # build_field refuses it too


def laplace_det(mat):
    """Reference determinant of a square integer matrix, exact, by
    expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * laplace_det(minor)
        total += -term if j % 2 else term
    return total


def test_det4_matches_laplace():
    rnd = random.Random(77)
    for q in (3, 5):
        mats = np.array(
            [[[rnd.randrange(q) for _ in range(4)] for _ in range(4)]
             for _ in range(50)], dtype=np.int64)
        got = ffield._det4_mod(mats, q)
        for i in range(50):
            assert got[i] == laplace_det(mats[i].tolist()) % q
    # more rows than one block of _DET_ROWS, the last block short, with
    # entries in (-q, q) as for I - g
    rows = 2 * ffield._DET_ROWS + 37
    for q in (3, 5):
        mats = np.array(
            [[[rnd.randrange(1 - q, q) for _ in range(4)] for _ in range(4)]
             for _ in range(rows)], dtype=np.int64)
        got = ffield._det4_mod(mats, q)
        assert got.shape == (rows,)
        assert got.tolist() == [laplace_det(mat) % q for mat in mats.tolist()]


@pytest.mark.parametrize("q", [3, 5])
def test_det4_at_the_int16_edge(q):
    # entries +-(q - 1) give the largest minors; (q - 1) H4, with H4 the
    # 4x4 Hadamard matrix, has |det| = 16 (q - 1)^4, 4096 at q = 5
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                         [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.int64)
    edge = (q - 1) * hadamard
    assert abs(laplace_det(edge.tolist())) == 16 * (q - 1) ** 4
    rnd = random.Random(q)
    rows = ffield._DET_ROWS + 300  # one full block and a short one
    mats = np.array(
        [[[rnd.choice((1 - q, q - 1)) for _ in range(4)] for _ in range(4)]
         for _ in range(rows)], dtype=np.int64)
    # the edge matrix, its negation and a row swap, in both blocks
    for at in (0, ffield._DET_ROWS - 1, ffield._DET_ROWS, rows - 1):
        mats[at] = edge
    mats[1] = mats[ffield._DET_ROWS + 1] = -edge
    mats[2] = mats[ffield._DET_ROWS + 2] = edge[[1, 0, 2, 3]]
    got = ffield._det4_mod(mats, q)
    assert got.shape == (rows,)
    assert got.tolist() == [laplace_det(mat) % q for mat in mats.tolist()]


def test_sample_orders_deterministic():
    a = ffield.sample_orders(3, 200, seed=5)
    b = ffield.sample_orders(3, 200, seed=5)
    assert a == b
    c = ffield.sample_orders(3, 200, seed=6)
    assert c != a  # overwhelmingly unlikely to coincide


# sha256 of json.dumps([full, proj]) for sample_orders(q, 2000, seed=11),
# recorded from the one-gather-per-step implementation it replaced
SAMPLE_DIGESTS = {
    3: "565dda139bab4080a0752ecbcfb4c20bbaa286f6d605540be224e20bbc9ec385",
    5: "2f36b44951aa981d9acefb3f328142707b7666052c1a14adc00831fbd6fb816a",
}


def _run_fresh(*args):
    """Run a fresh interpreter that finds this sl4witness first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffield.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                           text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path})


def test_numpy_loaded_only_by_sampling():
    proc = _run_fresh("-c", textwrap.dedent("""
        import json, sys
        import sl4witness
        assert "numpy" not in sys.modules
        result = sl4witness.ffield.sample_orders(3, 10)
        assert "numpy" in sys.modules
        print(json.dumps(result))"""))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == list(ffield.sample_orders(3, 10))


def test_library_import_skips_dataclasses_and_argparse():
    # the records are NamedTuples and cli imports argparse only to parse a
    # command line, so the package import loads neither; it loads what
    # construct and verify run, and leaves the command line and its json,
    # the spectrum oracle and this module to their first use
    proc = _run_fresh("-c", textwrap.dedent("""
        import sys
        import sl4witness
        print(" ".join(sorted(sys.modules)))"""))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect", "argparse", "json"} & loaded
    assert not {"sl4witness.spectrum", "sl4witness.ffield",
                "sl4witness.cli"} & loaded
    assert {"sl4witness.arith", "sl4witness.params",
            "sl4witness.witness", "sl4witness.verifier"} <= loaded


def test_verify_with_spectrum_does_not_load_numpy(tmp_path):
    cert = tmp_path / "cert.json"
    assert cli.main(["construct", "--epsilon", "+", "--p", "3", "--m", "2",
                     "--profile", "2,2", "--out", str(cert)]) == 0
    proc = _run_fresh("-X", "importtime", "-m", "sl4witness", "verify",
                      "--spectrum", "compute", str(cert))
    assert proc.returncode == 0, proc.stderr
    assert "certificate OK" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "sl4witness.cli" in imported
    assert "numpy" not in {name.split(".")[0] for name in imported}
    assert not {"dataclasses", "inspect"} & set(imported)


def test_sample_orders_contained_in_exact_tables():
    for q, p in ((3, 3), (5, 5)):
        pr = params.derive(1, p, 1)
        full_tab = set(spectrum.omega(pr, "SL"))
        proj_tab = set(spectrum.omega(pr, "PSL"))
        full, proj = ffield.sample_orders(q, 2000, seed=11)
        assert len(full) == len(proj) == 2000
        assert hashlib.sha256(json.dumps([full, proj]).encode()).hexdigest() \
            == SAMPLE_DIGESTS[q]
        assert set(full) <= full_tab
        assert set(proj) <= proj_tab
        # projective order divides the full order, with 2-power quotient
        for f, pj in zip(full, proj):
            assert f % pj == 0
            quot = f // pj
            assert quot & (quot - 1) == 0


def stepwise_charpoly_orders(q):
    """Reference for _charpoly_table's orders: walk the powers H^k of
    H = C^(q^e) for every companion matrix C in the table's layout, and
    take the first k at which H^k is I and the first at which it is
    scalar."""
    size = q**3
    c = np.arange(size)
    comp = np.zeros((size, 4, 4), dtype=np.int64)
    comp[:, [1, 2, 3], [0, 1, 2]] = 1
    comp[:, :, 3] = np.stack([np.full(size, q - 1), c // q**2,
                              -(c // q) % q, c % q], axis=1)
    step = ffield._matrix_pow(comp, q ** (2 if q == 3 else 1), q)
    semis, proj_semis = np.zeros((2, size), dtype=np.int64)
    off_diagonal = ~np.eye(4, dtype=bool)
    power, k = step, 1
    while not semis.all():
        diag = np.einsum("nii->ni", power)
        scalar = (~power[:, off_diagonal].any(axis=1)
                  & (diag == diag[:, :1]).all(axis=1))
        proj_semis[scalar & (proj_semis == 0)] = k
        semis[scalar & (diag[:, 0] == 1) & (semis == 0)] = k
        power = power @ step % q
        k += 1
    return semis, proj_semis


@pytest.mark.parametrize("q", [3, 5])
def test_charpoly_table_matches_stepwise_walk(q):
    semis, proj_semis, _ = ffield._charpoly_table(q)
    want_semis, want_proj = stepwise_charpoly_orders(q)
    assert semis.tolist() == want_semis.tolist()
    assert proj_semis.tolist() == want_proj.tolist()


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("count", [1, 2, 17, 1000])
def test_sample_orders_matches_stepwise_walk(q, count):
    for seed in range(20):
        mats = ffield._random_sl4(q, count, seed)
        assert ffield.sample_orders(q, count, seed) == \
            stepwise_orders(mats, q), seed


def test_sample_orders_slices_match_stepwise_walk(monkeypatch):
    # slices of 64 rows, the last one short
    monkeypatch.setattr(ffield, "_SLICE_ROWS", 64)
    for q in (3, 5):
        mats = ffield._random_sl4(q, 1000, 7)
        assert ffield.sample_orders(q, 1000, 7) == stepwise_orders(mats, q)


def jordan_types(q):
    """lambda J_pi for every partition pi of 4 and every lambda in F_q^*
    (all of which have lambda^4 = 1 at q = 3 and 5): blocks with lambda on
    the diagonal and the superdiagonal."""
    mats = []
    for lam in range(1, q):
        for parts in ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)):
            mat = np.zeros((4, 4), dtype=np.int64)
            start = 0
            for size in parts:
                for i in range(start, start + size):
                    mat[i, i] = lam
                    if i + 1 < start + size:
                        mat[i, i + 1] = lam
                start += size
            mats.append(mat)
    return np.array(mats)


def companion_matrices(q):
    """The q^3 companion matrices, in row form, of the polynomials
    x^4 + a3 x^3 + a2 x^2 + a1 x + 1 over F_q: every determinant-one
    characteristic polynomial once."""
    mats = []
    for a1, a2, a3 in itertools.product(range(q), repeat=3):
        mat = np.zeros((4, 4), dtype=np.int64)
        mat[[0, 1, 2], [1, 2, 3]] = 1
        mat[3] = [(-c) % q for c in (1, a1, a2, a3)]
        mats.append(mat)
    return np.array(mats)


@pytest.mark.parametrize("q", [3, 5])
def test_jordan_orders_match_stepwise_walk_on_every_type(q):
    # a seeded batch need not hit every Jordan type (orders 9 and 18 come
    # only from a block of size 4 at q = 3); the companion matrices reach
    # every characteristic polynomial, and their q-th and q^2-th powers
    # include the semisimple parts
    types = jordan_types(q)
    powers = [companion_matrices(q)]
    for _ in range(2):
        power = powers[-1]
        for _ in range(q - 1):
            power = np.matmul(power, powers[-1]) % q
        powers.append(power)
    for mats in (types, *powers):
        assert ffield._jordan_orders(mats, q) == stepwise_orders(mats, q)
    full, _ = ffield._jordan_orders(types, q)
    assert set(full) == ({1, 2, 3, 6, 9, 18} if q == 3
                         else {1, 2, 4, 5, 10, 20})


def companion_powers(q):
    """The companion matrices and their q-th and q^2-th powers, which
    include the semisimple parts."""
    powers = [companion_matrices(q)]
    for _ in range(2):
        power = powers[-1]
        for _ in range(q - 1):
            power = np.matmul(power, powers[-1]) % q
        powers.append(power)
    return powers


def det_route_index(mats, q):
    """Reference table index c1 + q c2 + q^2 c3 of each matrix's
    characteristic polynomial x^4 - c1 x^3 + c2 x^2 - c3 x + 1, with
    c2 = (c1^2 - tr g^2) / 2 mod q and c3 from chi(1) = det(I - g)."""
    c1 = np.einsum("nii->n", mats)
    c2 = (c1 * c1 - np.einsum("nii->n", mats @ mats)) * ((q + 1) // 2)
    dets = np.rint(np.linalg.det(np.eye(4) - mats)).astype(np.int64)
    c3 = 2 - c1 + c2 - dets
    return (c1 % q + q * (c2 % q) + q * q * (c3 % q)).tolist()


@pytest.mark.parametrize("q", [3, 5])
def test_power_sums_give_the_det_route_index(q, monkeypatch):
    # a table whose semisimple order is the index itself and whose
    # residues are all 0 makes _jordan_orders return the index it looks up
    size = q**3
    monkeypatch.setattr(ffield, "_charpoly_table", lambda q: (
        np.arange(size), np.arange(size), np.zeros((size, 4), np.int64)))
    batches = [*companion_powers(q), jordan_types(q)]
    batches += [ffield._random_sl4(q, 1000, seed) for seed in range(20)]
    seen = set()
    for mats in batches:
        index = det_route_index(mats, q)
        assert ffield._jordan_orders(mats, q)[0] == index
        seen.update(index)
    assert seen == set(range(size))


@pytest.mark.parametrize("q", [3, 5])
def test_residue_is_zero_iff_chi_is_squarefree(q):
    # the table's x^L - 1 mod chi is 0 exactly when gcd(chi, chi') = 1, so
    # skipping the Jordan step there loses no unipotent part
    residues = ffield._charpoly_table(q)[2]
    squarefree = 0
    for c in range(q**3):
        c1, c2, c3 = c % q, c // q % q, c // q**2
        chi = [1, -c3 % q, c2, -c1 % q, 1]
        deriv = [j * a % q for j, a in enumerate(chi)][1:]
        coprime = len(poly_gcd(chi, deriv, q)) == 1
        assert (not residues[c].any()) == coprime, c
        squarefree += coprime
    assert 0 < squarefree < q**3


def test_sample_orders_validation():
    with pytest.raises(ValueError):
        ffield.sample_orders(7, 10)
    with pytest.raises(ValueError):
        ffield.sample_orders(3, 0)
    with pytest.raises(ValueError):
        ffield.sample_orders(3, 10 ** 7)
