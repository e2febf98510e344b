"""Explicit small finite fields, diagonal realization, and sampling
cross-checks.

Field elements are little-endian coefficient tuples of polynomials modulo a
monic irreducible.  Inside Field they are packed into one integer, one
coefficient per slot of 8, 16, 32, 64 or 128 bits (Kronecker substitution),
so a product of polynomials is one big-integer multiplication.  Every slot
is reduced mod p at once by one multiply, shift, mask and subtract
(Granlund and Montgomery's division by an invariant integer, done
slot-wise); the slot is the narrowest in which that multiply cannot carry,
see Field.  Field._mul is the one polynomial multiply: it folds the degrees
>= k by polynomial Barrett reduction, whose quotient is the product's high
half times the precomputed mu = x^(2k-2) div f, so a product takes three
big-integer products and three slot reductions whatever k is.  Field.pow
raises a long exponent by Horner's rule over its base-p digits when that
takes fewer products than square-and-multiply: the Frobenius map a -> a^p
is F_p-linear, so it is one packed multiply-add over the cached powers
x^(pj) and one slot reduction.  Values stay packed inside pow and inside
the modulus search, whose Euclidean gcds cancel a leading term per step
with one packed multiply-add.  The modulus is found by a counter scan,
which skips the binomials x^k + c when the binomial criterion (Lidl and
Niederreiter, Thm 3.75) rules them all out and every candidate with a root
in F_p (a sieve over each block of p candidates that differ only in the
constant term); Ben-Or's test checks the rest, with one gcd for several of
its passes.  Repeated runs always pick the same field and the same element
tables; nothing here is randomized except sample_orders, which takes an
explicit seed.  Orders are found by one method, the prime-divisor test:
start from a known multiple and divide out each prime while the power
stays the identity; for realized elements directly, and for sampled
matrices in the table of semisimple orders by characteristic polynomial.
A sampled matrix's order is that semisimple order times its unipotent
part's, which the nilpotency index of g^L - I gives (Jordan
decomposition).  No CLI command uses this module, and the package loads
it only on first use of one of its names; numpy is loaded only when
sampling runs, as the sampling helpers import it themselves.
"""

import math
import operator
import sys
from array import array
from functools import lru_cache
from typing import NamedTuple

from . import arith


class RealizationError(RuntimeError):
    """A certificate could not be realized as an explicit matrix."""


def _is_irreducible(ring):
    """The monic modulus f of degree k has no factor of degree <= k // 2.

    ring is a Field built on the candidate f; its arithmetic reduces
    correctly modulo any monic f, irreducible or not.  With u_i = x^(p^i),
    a factor of degree dividing i divides u_i - x, and an irreducible f of
    degree k > k // 2 divides none, so no final confirmation step is
    needed.  Each irreducible factor of f is prime, so it divides a product
    of some u_i - x iff it divides one of them, and one gcd can serve
    several passes.  Passes 1 and 2 share a gcd, as build_field's root
    sieve leaves no candidate with a linear factor; passes 3 and 4 take one
    each, and the later passes share the last: over the 12 fields that the
    crosscheck benchmark realizes in, 148 of the 183 reducible candidates
    tested leave by pass 4 and at most 5 at any later pass, and a last
    early gcd at pass 3 or 2 instead of 4 made building them slower.  It
    works on packed values throughout (see Field).
    """
    p, k, width = ring.p, ring.k, ring._width
    if k == 1:
        return True
    u = 1 << width  # the polynomial x
    minus_x = (p - 1) << width
    f = ring._pack(ring.modulus)
    batch = None
    for i in range(1, k // 2 + 1):
        u = ring._pow(u, p)
        v = ring._red(u + minus_x)
        batch = v if batch is None else ring._mul(batch, v)
        if 2 <= i <= 4 or i == k // 2:
            if ring._gcd(f, batch) >> width:  # degree >= 1
                return False
            batch = None
    return True


# ---------------------------------------------------------------------------

def _digits(n: int, p: int, k: int) -> tuple:
    """The k base-p digits of n, least digit first."""
    digits = []
    for _ in range(k):
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


# Unsigned array typecodes by item size; the sizes of 'I' and 'L' depend on
# the platform, so the code is looked up by size, never by letter.
_CODES = {array(code).itemsize: code for code in "BHILQ"}
_SWAP = sys.byteorder != "little"


class Field:
    """F_{p^k}; elements are length-k tuples, constant coefficient first.

    Inside, an element is packed: the integer sum c_i 2^(w i), one
    coefficient per w-bit slot, and every packed value passed between the
    methods has each slot below p.  _red reduces every slot mod p at once
    when each is at most V = k (p - 1)^2 + p, which bounds a product of two
    reduced values plus one more reduced value, so no slot carries.  The
    width w is the least of 8, 16, 32, 64 and 128 with V M < 2^w, where s
    is the bit length of V (p - 1) and M = ceil(2^s / p): then
    floor(v M / 2^s) = floor(v / p) for every v <= V (Granlund and
    Montgomery, PLDI 1994) and v M fits its slot, so one multiply, shift
    and mask give every slot's quotient.
    """

    def __init__(self, p: int, k: int, modulus: tuple):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self.zero = (0,) * k
        self.one = tuple(1 if i == 0 else 0 for i in range(k))
        bound = k * (p - 1) ** 2 + p
        shift = (bound * (p - 1)).bit_length()
        magic = -(-(1 << shift) // p)
        for width in (8, 16, 32, 64, 128):
            if bound * magic < 1 << width:
                break
        else:
            raise ValueError("field too wide for packed arithmetic")
        self._width = width
        self._shift = shift
        self._magic = magic
        # the low width - shift bits of each of 2k slots, which hold any
        # product's quotients
        self._qmask = ((1 << (width - shift)) - 1) * (
            ((1 << (2 * k * width)) - 1) // ((1 << width) - 1))
        # a 16-byte slot is read as two 'Q' words, the high one zero
        self._code = _CODES[min(width, 64) // 8]
        self._stride = max(width // 64, 1)
        self._nbytes = k * width // 8
        self._low = (1 << (k * width)) - 1
        self._high = k * width  # shifts a product down to its degrees >= k
        self._qshift = max(k - 2, 0) * width  # the quotient's slots
        # x^k = -(f's lower part) mod f
        self._neg_low = self._pack([(-c) % p for c in modulus[:k]])
        # mu = x^(2k - 2) div f, for the Barrett quotient: its reversal is
        # the power series 1 / rev(f) mod x^(k - 1), each of whose terms
        # takes only f's nonzero coefficients, a few for a counter-scan
        # modulus
        terms = [(j, (-c) % p)
                 for j, c in enumerate(reversed(modulus[1:k]), 1) if c]
        rev = [1] if k > 1 else []
        for n in range(1, k - 1):
            rev.append(sum(c * rev[n - j] for j, c in terms if j <= n) % p)
        self._mu = self._pack(rev[::-1])
        self._frob = None  # packed x^(pj) for j < k, see _frobenius_rows

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k})"

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        """Product modulo the modulus."""
        return self._unpack(self._mul(self._pack(a), self._pack(b)))

    def pow(self, a, e: int):
        """a^e."""
        if e < 0:
            raise ValueError("negative exponents are not supported")
        return self._unpack(self._pow(self._pack(a), e))

    def element(self, index: int):
        """The index-th element: base-p digits of index, least digit first."""
        if not 0 <= index < self.order:
            raise ValueError("element index out of range")
        return _digits(index, self.p, self.k)

    def _pack(self, coeffs) -> int:
        """The integer whose slots hold coeffs, each below 2^64."""
        if self._stride == 2:
            coeffs = [word for c in coeffs for word in (c, 0)]
        words = array(self._code, coeffs)
        if _SWAP:
            words.byteswap()
        return int.from_bytes(words, "little")

    def _unpack(self, value: int) -> tuple:
        """The k slots of a reduced packed value; inverse of _pack."""
        words = array(self._code, value.to_bytes(self._nbytes, "little"))
        if _SWAP:
            words.byteswap()
        return tuple(words[::self._stride])

    def _red(self, v: int) -> int:
        """v with every slot reduced mod p; each slot at most V."""
        return v - (((v * self._magic) >> self._shift) & self._qmask) * self.p

    def _mul(self, a: int, b: int) -> int:
        """Packed product modulo the modulus f.

        P = a b, reduced, has 2k - 1 slots.  Its quotient by f is
        floor(floor(P / x^k) mu / x^(k - 2)) exactly (Barrett, CRYPTO 1986,
        for polynomials, where no correction step is needed), and its
        remainder is P - quotient * f, whose degrees >= k cancel: the low k
        slots of P plus those of quotient * (-f's lower part).  Each of the
        three products sums at most k slot products below p^2, and the last
        adds one reduced slot, so every slot stays at most V.
        """
        red, low = self._red, self._low
        prod = red(a * b)
        quot = red((prod >> self._high) * self._mu) >> self._qshift
        return red((prod & low) + ((quot * self._neg_low) & low))

    def _pow(self, a: int, e: int) -> int:
        """Packed a^e.

        Square-and-multiply takes bit_length(e) - 1 squarings and
        popcount(e) - 1 products.  For e >= p^2, Horner's rule over the
        base-p digits of e takes p - 2 products for the table a^0 .. a^(p-1)
        and then, per lower digit, one Frobenius step plus one product if
        the digit is nonzero; it runs when that count, with a Frobenius step
        counted as a product, is the smaller.  Raising to p is F_p-linear,
        a^p = sum a_j x^(pj), so a Frobenius step is one multiply-add over
        the cached rows x^(pj) and one _red; each slot sums k terms below
        p^2, as in a product.
        """
        p = self.p
        if e >= p * p:
            digits = []
            n = e
            while n:
                n, d = divmod(n, p)
                digits.append(d)
            lower = digits[:-1]
            if (p - 2 + len(lower) + sum(map(bool, lower))
                    < e.bit_length() - 1 + e.bit_count() - 1):
                rows = self._frobenius_rows()
                table = [1, a]
                for _ in range(p - 2):
                    table.append(self._mul(table[-1], a))
                result = table[digits[-1]]
                for d in reversed(lower):
                    result = self._red(sum(map(
                        operator.mul, self._unpack(result), rows)))
                    if d:
                        result = self._mul(result, table[d])
                return result
        result = None
        while e:
            if e & 1:
                result = a if result is None else self._mul(result, a)
            e >>= 1
            if e:
                a = self._mul(a, a)
        return 1 if result is None else result

    def _frobenius_rows(self):
        """The packed x^(pj) for j < k, computed on first use."""
        if self._frob is None:
            rows = [1]
            if self.k > 1:
                xp = self._pow(1 << self._width, self.p)
                rows.append(xp)
                while len(rows) < self.k:
                    rows.append(self._mul(rows[-1], xp))
            self._frob = rows
        return self._frob

    def _gcd(self, a: int, b: int) -> int:
        """A gcd, not made monic, of the packed polynomials a and b.

        Each step of Euclid's algorithm cancels the leading term of a by a
        shifted scalar multiple of b: one multiply-add, whose slots stay
        below p + (p - 1)^2 <= V, and one _red.
        """
        width, p = self._width, self.p
        while b:
            top = (b.bit_length() - 1) // width
            scale = p - pow(b >> (top * width), -1, p)  # -1 / lead(b)
            while (deg := (a.bit_length() - 1) // width) >= top:
                c = (a >> (deg * width)) * scale % p
                a = self._red(a + (c * b << ((deg - top) * width)))
            a, b = b, a
        return a


@lru_cache(maxsize=None)
def build_field(p: int, k: int) -> Field:
    """F_{p^k} with the first monic irreducible modulus in counter order.

    Candidate i is the monic f whose lower coefficients are the base-p
    digits of i, so the candidates come in blocks of p, one per constant
    coefficient c_0, that share g = f - c_0.  For k >= 2 a candidate with a
    root a in F_p is reducible, so each block skips every c_0 = -g(a) and
    Ben-Or tests only the rest; the first irreducible in counter order is
    the same.

    The first block holds the binomials x^k + c.  By Lidl and Niederreiter,
    Finite Fields, Thm 3.75, x^k - a with k >= 2 is irreducible iff each
    prime r | k divides ord(a) but not (p - 1)/ord(a), and p = 1 (mod 4)
    when 4 | k.  Since ord(a) divides p - 1, none qualifies when some prime
    r | k does not divide p - 1, or when 4 | k and p != 1 (mod 4); then the
    scan starts at the second block.
    """
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    # p^k has at least k * (p.bit_length() - 1) + 1 bits, so a huge field
    # is refused before p^k is computed
    if (k * (p.bit_length() - 1) >= arith.SIZE_LIMIT.bit_length()
            or p**k > arith.SIZE_LIMIT):
        raise ValueError(f"F_{p}^{k} exceeds the size limit")
    if k == 1:
        return Field(p, 1, (0, 1))  # x, the first candidate
    start = 0
    if (any((p - 1) % r for r in arith.prime_divisors(k))
            or (k % 4 == 0 and p % 4 != 1)):
        start = 1
    for high in range(start, p ** (k - 1)):
        upper = _digits(high, p, k - 1)  # c_1 .. c_(k-1)
        rooted = set()
        for a in range(p):
            v = 1
            for c in reversed(upper):
                v = (v * a + c) % p
            rooted.add(-v * a % p)  # -g(a), with g(a) = a * v
        for c0 in range(p):
            if c0 not in rooted:
                field = Field(p, k, (c0, *upper, 1))
                if _is_irreducible(field):
                    return field
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _order_dividing(field: Field, entries, bound: int):
    """Multiplicative order of the diagonal element with these entries, by
    the prime-divisor test; None when it does not divide bound."""
    one = field.one
    if any(field.pow(v, bound) != one for v in entries):
        return None
    order = bound
    for ell in ([] if bound == 1 else arith.prime_divisors(bound)):
        while order % ell == 0 and all(
                field.pow(v, order // ell) == one for v in entries):
            order //= ell
    return order


def element_of_order(field: Field, n: int):
    """Deterministic element of exact multiplicative order n: the first
    index whose element, raised to the cofactor (order - 1) / n, has
    order n."""
    if n < 1 or (field.order - 1) % n != 0:
        raise ValueError(f"F_{field.order} has no element of order {n}")
    cofactor = (field.order - 1) // n
    # y = g^cofactor has y^n = 1, so its order is n unless y^(n/l) = 1 for
    # some prime l | n
    exponents = [] if n == 1 else [n // ell for ell in arith.prime_divisors(n)]
    one = field.one
    # indices below p are the constants of F_p, whose powers have order
    # dividing p - 1: none of them can qualify unless n divides p - 1
    start = 1 if (field.p - 1) % n == 0 else field.p
    for idx in range(start, field.order):
        y = field.pow(field.element(idx), cofactor)
        if all(field.pow(y, e) != one for e in exponents):
            return y
    raise RealizationError(f"no element of order {n} found")  # unreachable


class Matrix4(NamedTuple):
    field: Field
    rows: tuple

    def mul(self, other: "Matrix4") -> "Matrix4":
        F = self.field
        zero = F.zero
        out = []
        for i in range(4):
            row = []
            for j in range(4):
                acc = zero
                for l in range(4):
                    a = self.rows[i][l]
                    if a != zero:
                        b = other.rows[l][j]
                        if b != zero:
                            acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Matrix4(F, tuple(out))


def diagonal(field: Field, entries) -> Matrix4:
    entries = tuple(entries)
    if len(entries) != 4:
        raise ValueError("need exactly four diagonal entries")
    return Matrix4(field, tuple(
        tuple(entries[i] if i == j else field.zero for j in range(4))
        for i in range(4)))


def realize(cert) -> Matrix4:
    """Materialize the certificate's diagonal element over F_{p^(12m)}.

    That one field contains every characteristic value the four cases can
    ask for, since each case modulus divides q^12 - 1.  The element order
    is recomputed from the diagonal entries by the prime-divisor test,
    starting from the theta order, and compared with the claim.  Fields
    past SIZE_LIMIT, which build_field refuses, are not realized.
    """
    pr = cert.params
    k = 12 * pr.m
    if pr.p**k > arith.SIZE_LIMIT:
        raise RealizationError(
            f"field F_{pr.p}^{k} exceeds the size limit")
    field = build_field(pr.p, k)
    theta = element_of_order(field, cert.theta_order)
    entries = tuple(field.pow(theta, e) for e in cert.exponents)
    det = field.one
    for v in entries:
        det = field.mul(det, v)
    if det != field.one:
        raise RealizationError("diagonal determinant is not 1")
    order = _order_dividing(field, entries, cert.theta_order)
    if order is None:
        raise RealizationError("order exceeded the theta-order bound")
    if order != cert.claimed_order:
        raise RealizationError(
            f"explicit order {order} != claimed {cert.claimed_order}")
    return diagonal(field, entries)


# ---------------------------------------------------------------------------
# randomized cross-check over the prime field

# Laplace expansion along rows 0 and 1: the determinant is the signed sum,
# over the 6 column pairs, of the 2x2 minor on rows 0, 1 times the
# complementary minor on rows 2, 3.  _MINOR_ENTRIES holds the entries a, b,
# c, d of the 12 minors ad - bc, as flat indices 4 * row + column: for each
# of a, b, c, d, the 6 top minors, then their complements in the same order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MINOR_ENTRIES = [4 * (top + dr) + cols[i]
                  for dr, i in ((0, 0), (1, 1), (0, 1), (1, 0))
                  for top, pairs in ((0, _PAIRS), (2, _PAIRS[::-1]))
                  for cols in pairs]
_SIGNS = [1, -1, 1, 1, -1, 1]


_DET_ROWS = 256


def _det4_mod(m, q):
    """Determinants mod q of a (n, 4, 4) batch of small integers, n >= 1,
    via complementary 2x2 minors.

    Each block of _DET_ROWS matrices is copied transposed, so the entries
    of the minors are gathered as contiguous rows.  The blocks keep the
    largest copy (48 x 256 entries, 96 KiB) below glibc's 128 KiB mmap
    threshold; larger copies are mapped fresh on every call, which made
    1000-matrix sample batches slower.
    """
    import numpy as np

    dets = []
    for start in range(0, len(m), _DET_ROWS):
        block = m[start:start + _DET_ROWS]
        entries = block.reshape(len(block), 16).T.copy()[_MINOR_ENTRIES]
        a, b, c, d = entries.reshape(4, 12, len(block))
        minors = a * b - c * d
        dets.append(_SIGNS @ (minors[:6] * minors[6:]) % q)
    return np.concatenate(dets)


def sample_orders(q: int, count: int, seed: int = 0):
    """Orders of `count` uniform random determinant-one 4x4 matrices mod q
    (drawn by _random_sl4), together with the orders of their images mod
    scalars.

    Each order comes from the matrix's characteristic polynomial and the
    largest Jordan block of its unipotent part (_jordan_orders), computed
    on slices of _SLICE_ROWS matrices.  Returns (full_orders,
    projective_orders) as plain lists.
    """
    if q not in (3, 5):
        raise ValueError("sampling cross-check supports q in {3, 5} only")
    if not 1 <= count <= 10**6:
        raise ValueError("count out of range")
    mats = _random_sl4(q, count, seed)
    full, proj = [], []
    for start in range(0, count, _SLICE_ROWS):
        part_full, part_proj = _jordan_orders(
            mats[start:start + _SLICE_ROWS], q)
        full += part_full
        proj += part_proj
    return full, proj


def _random_sl4(q: int, count: int, seed: int):
    """A (count, 4, 4) batch of uniform random determinant-one matrices mod
    q.

    Rejection-sample invertible matrices, then scale the first row by
    det^{-1}; every determinant-one matrix has the same number (q - 1) of
    invertible preimages under that map, so the result is uniform.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    mats = rng.integers(0, q, size=(count, 4, 4), dtype=np.int64)
    dets = _det4_mod(mats, q)
    while True:
        bad = np.flatnonzero(dets == 0)
        if bad.size == 0:
            break
        fresh = rng.integers(0, q, size=(bad.size, 4, 4), dtype=np.int64)
        mats[bad] = fresh
        dets[bad] = _det4_mod(fresh, q)
    inv_table = np.array([0] + [pow(v, q - 2, q) for v in range(1, q)],
                         dtype=np.int64)
    mats[:, 0, :] = (mats[:, 0, :] * inv_table[dets][:, None]) % q
    return mats


# Matrices per slice, which keeps the slice's powers to a few megabytes
# whatever the sample count.
_SLICE_ROWS = 1 << 14


def _jordan_orders(mats, q: int):
    """Orders of the determinant-one matrices mats mod q and of their images
    mod scalars, from the Jordan decomposition g = g_s g_u.

    ord(g_s) is prime to q and a scalar power of g has g_u-part I, so the
    order is ord(g_s) ord(g_u) and the projective order is that of g_s
    times ord(g_u) (Carter, Finite Groups of Lie Type, 1985).  g_s enters
    only through the characteristic polynomial
    chi = x^4 - c1 x^3 + c2 x^2 - c3 x + 1, looked up in _charpoly_table:
    c1 = tr g, c2 = (c1^2 - tr g^2) / 2, and c3, the sum of the principal
    3x3 minors, follows from chi(1) = det(I - g).  By Cayley-Hamilton the
    table's x^L mod chi gives N = g^L - I = g_u^L - I, nilpotent of the
    index b of g_u - I, the largest Jordan block; ord(g_u) is the least
    power of q at least b: 1 if N = 0, q if N^q = 0, else q^2.
    """
    import numpy as np

    semis, proj_semis, residues = _charpoly_table(q)
    diag = np.arange(4)
    # entries stay below 2^13, so only values read mod q are reduced
    mats2 = mats @ mats
    mats3 = mats2 @ mats
    c1 = mats[:, diag, diag].sum(axis=1)
    c2 = (c1 * c1 - mats2[:, diag, diag].sum(axis=1)) * ((q + 1) // 2)
    c3 = 2 - c1 + c2 - _det4_mod(np.eye(4, dtype=np.int64) - mats, q)
    index = c1 % q + q * (c2 % q) + q * q * (c3 % q)
    t = residues[index]
    nil = (t[:, 1, None, None] * mats + t[:, 2, None, None] * mats2
           + t[:, 3, None, None] * mats3)
    nil[:, diag, diag] += t[:, :1] - 1
    nil %= q
    moved = np.flatnonzero(nil.any(axis=(1, 2)))
    unipotent = np.ones(len(mats), dtype=np.int64)
    unipotent[moved] = q
    if q == 3:  # a block of size 4 > q needs q^2
        nil = nil[moved]
        cube = nil @ nil @ nil % q
        unipotent[moved[cube.any(axis=(1, 2))]] = q * q
    return ((semis[index] * unipotent).tolist(),
            (proj_semis[index] * unipotent).tolist())


@lru_cache(maxsize=None)
def _charpoly_table(q: int):
    """Per characteristic polynomial chi = x^4 - c1 x^3 + c2 x^2 - c3 x + 1
    over F_q, at index c1 + q c2 + q^2 c3: the order and projective order
    of the semisimple part of any matrix with that chi, and the
    coefficients of x^L mod chi, constant first, where
    L = lcm(q^d - 1 : d <= 4) is a multiple of every semisimple order.

    C, the companion matrix of chi, is multiplication by x on the basis
    1, x, x^2, x^3, so x^L mod chi is the first column of C^L.  The
    semisimple part of C has the order and projective order of H = C^(q^e),
    which kills C's unipotent part (q^e >= 4, the largest block size) and
    keeps both orders, as they are prime to q.  Both divide L, so the
    prime-divisor test finds them, one prime at a time: for each l^a
    exactly dividing L, the l-part of H's order is the least l^j for which
    (H^(L / l^a))^(l^j) is I, and of its projective order the least for
    which that power is scalar.
    """
    import numpy as np

    size = q**3
    c = np.arange(size)
    comp = np.zeros((size, 4, 4), dtype=np.int64)
    comp[:, [1, 2, 3], [0, 1, 2]] = 1
    # x * x^3 = x^4 = c1 x^3 - c2 x^2 + c3 x - 1 mod chi
    comp[:, :, 3] = np.stack([np.full(size, q - 1), c // q**2,
                              -(c // q) % q, c % q], axis=1)
    big = math.lcm(*(q**d - 1 for d in range(1, 5)))
    residues = _matrix_pow(comp, big, q)[:, :, 0]
    kill = q ** (2 if q == 3 else 1)
    semis, proj_semis = np.ones((2, size), dtype=np.int64)
    off_diagonal = ~np.eye(4, dtype=bool)
    for ell, a in arith.factorize(big):
        power = _matrix_pow(comp, kill * (big // ell**a), q)
        for j in range(a):
            diag = np.einsum("nii->ni", power)
            scalar = (~power[:, off_diagonal].any(axis=1)
                      & (diag == diag[:, :1]).all(axis=1))
            semis[~scalar | (diag[:, 0] != 1)] *= ell
            proj_semis[~scalar] *= ell
            if j + 1 < a:
                power = _matrix_pow(power, ell, q)
    return semis, proj_semis, residues


def _matrix_pow(mats, e: int, q: int):
    """mats^e mod q for a (n, 4, 4) batch, by square-and-multiply; e >= 1."""
    result = mats
    for bit in bin(e)[3:]:
        result = result @ result % q
        if bit == "1":
            result = result @ mats % q
    return result
