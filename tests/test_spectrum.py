"""Spectrum oracle tests.

The cheapest independent cross-checks are counting identities: orbits of
e -> eps*q*e partition Z/(q^d - eps^d), so sizes must add up exactly, and
every order in the table must carry all of its divisors (an element power
realizes each one).  The closed-form omega() is compared live against the
orbit enumeration for q <= 17, and pinned by digest for 19 <= q <= 27,
where the enumeration takes seconds per group, and for every q < 1000 by
one digest over all dumps.
"""

import hashlib
import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sl4witness import arith, cli, params, spectrum, verifier
from spectrum_reference import enumerated_omega_sets

# published spectra for the two linear groups of dimension 4 over F_3 and
# the full preimage of the first; any regression here is a real bug
OMEGA_PSL4_3 = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 20)
OMEGA_SL4_3 = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 18, 20, 24, 26, 40)
OMEGA_PSU4_3 = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12)


def test_orbit_reps_frozen():
    pr = params.derive(1, 3, 1)
    big = 3 ** 12 - 1
    reps = spectrum.enumerate_orbits(pr, 2)
    assert [(o.e, o.embedded) for o in reps] == [
        (1, big // 8), (2, big // 4), (5, 5 * big // 8)]
    reps = spectrum.enumerate_orbits(pr, 1)
    assert [(o.e, o.embedded) for o in reps] == [(0, 0), (1, big // 2)]
    pru = params.derive(-1, 3, 1)
    assert [o.e for o in spectrum.enumerate_orbits(pru, 1)] == [0, 1, 2, 3]


def test_orbit_counting_identity():
    # summing s * #(orbits of exact size s) over s | d recovers the full
    # modulus q^d - eps^d, because fixed points of step s are Z/(q^s - eps^s)
    for q, p, m in ((3, 3, 1), (5, 5, 1), (9, 3, 2)):
        for eps in (1, -1):
            pr = params.derive(eps, p, m)
            for d in (1, 2, 3, 4):
                total = 0
                for s in range(1, d + 1):
                    if d % s:
                        continue
                    total += s * len(spectrum.enumerate_orbits(pr, s))
                assert total == q ** d - eps ** d, (eps, q, d)


def test_omega_frozen_q3():
    assert spectrum.omega(params.derive(1, 3, 1), group="PSL") == OMEGA_PSL4_3
    assert spectrum.omega(params.derive(1, 3, 1), group="SL") == OMEGA_SL4_3
    assert spectrum.omega(params.derive(-1, 3, 1), group="PSL") == OMEGA_PSU4_3


def test_omega_matches_full_class_enumeration():
    # omega() takes a shortcut on unipotent parts (order depends only on
    # the largest block); the reference walks every partition choice
    for eps in (1, -1):
        pr = params.derive(eps, 3, 1)
        full, proj = enumerated_omega_sets(pr)
        assert full == spectrum.omega(pr, "SL")
        assert proj == spectrum.omega(pr, "PSL")


def test_omega_divisor_closed():
    from sl4witness import arith
    for eps in (1, -1):
        for q, p in ((3, 3), (5, 5)):
            pr = params.derive(eps, p, 1)
            for group in ("SL", "PSL"):
                table = set(spectrum.omega(pr, group))
                for o in table:
                    for pp in arith.factorize(o) if o > 1 else []:
                        assert o // pp.prime in table, (eps, q, group, o)


def test_omega_sorted_and_contains_identity():
    for eps in (1, -1):
        pr = params.derive(eps, 5, 1)
        for group in ("SL", "PSL"):
            table = spectrum.omega(pr, group)
            assert list(table) == sorted(set(table))
            assert table[0] == 1


def test_member():
    table = OMEGA_PSL4_3
    assert arith.member(table, 5)
    assert arith.member(table, 4)
    assert not arith.member(table, 15)
    assert not arith.member(table, 39)
    assert not arith.member(table, 40)
    assert arith.member(OMEGA_PSU4_3, 7)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**6), max_size=40),
       st.integers(1, 60) | st.integers(1, 2 * 10**6))
def test_member_matches_full_scan(raw, x):
    # any positive orders, unsorted and repeated, stand for the set of all
    # their divisors: a scan of that set, which sympy lists independently
    closure = set().union(*(sympy.divisors(o) for o in raw))
    assert arith.member(raw, x) == (x in closure)
    for o in raw[:3]:
        assert arith.member(raw, o)


def test_member_accepts_unsorted_orders():
    shuffled = list(OMEGA_PSL4_3)
    random.Random(7).shuffle(shuffled)
    assert shuffled != sorted(shuffled)
    for table in (shuffled, OMEGA_PSL4_3[::-1]):
        for x in range(1, 300):
            assert arith.member(table, x) == (x in OMEGA_PSL4_3), x


def test_member_on_maxima():
    pr = params.derive(1, 3, 1)
    maxima = spectrum.omega_maxima(pr, "PSL")
    assert maxima == (8, 9, 12, 13, 20)
    for x in range(1, 300):
        assert arith.member(maxima, x) == (x in OMEGA_PSL4_3), x
    # the same maxima listed in another order, or with a divisor among
    # them, give the same answers
    for table in (maxima[::-1], (4, *maxima, 6)):
        for x in range(1, 300):
            assert arith.member(table, x) == (x in OMEGA_PSL4_3), x


def test_member_refuses_non_positive_order():
    for table in (OMEGA_PSL4_3, (20, 8, 13), (), spectrum.omega_maxima(
            params.derive(-1, 3, 1), "PSL")):
        for x in (0, -1, -20):
            with pytest.raises(ValueError, match="^order must be positive$"):
                arith.member(table, x)


def test_q_cap_enforced():
    # the cap bounds only the reference enumeration; omega() goes on
    pr = params.derive(1, 29, 1)
    with pytest.raises(ValueError):
        enumerated_omega_sets(pr)
    table = spectrum.omega(pr, group="PSL")
    assert table[0] == 1 and arith.member(table, 29)
    assert not arith.member(table, 29 * 29)


def _small_fields(limit):
    for q in range(3, limit + 1, 2):
        powers = arith.factorize(q)
        if len(powers) == 1:
            yield powers[0].prime, powers[0].exponent


def _maximal(orders):
    return tuple(o for o in orders if all(v % o or v == o for v in orders))


def test_closed_form_matches_enumeration():
    # the closed form takes a shortcut on unipotent parts (only the largest
    # Jordan block b <= max mu matters); the reference walks every partition
    for p, m in _small_fields(17):
        for eps in (1, -1):
            pr = params.derive(eps, p, m)
            for group, want in zip(("SL", "PSL"), enumerated_omega_sets(pr)):
                assert spectrum.omega(pr, group) == want, (eps, p**m, group)
                assert spectrum.omega_maxima(pr, group) == _maximal(want), \
                    (eps, p**m, group)


def _divisors_of(n):
    out = [1]
    for pp in arith.factorize(n):
        out = [d * pp.prime**k for d in out for k in range(pp.exponent + 1)]
    return out


def _check_maxima_membership(pr, rng):
    for group in ("SL", "PSL"):
        maxima = spectrum.omega_maxima(pr, group)
        table = spectrum.omega(pr, group)
        xs = {d for top in maxima for d in _divisors_of(pr.p * top)}
        xs.update(rng.randrange(1, pr.p * max(maxima) + 1) for _ in range(50))
        for x in xs:
            assert arith.member(maxima, x) == arith.member(table, x), \
                (pr.epsilon, pr.q, group, x)


def test_maxima_membership_matches_omega():
    # x runs over every divisor of p * M for each maximum M, so over every
    # order and p times every order, and over a seeded sample of others;
    # every group with q < 1000, then 200 seeded groups above
    rng = random.Random(20261020)
    for p, m in _small_fields(999):
        for eps in (1, -1):
            _check_maxima_membership(params.derive(eps, p, m), rng)
    above = [(eps, p, m) for p in sympy.primerange(3, params.Q_CAP + 1)
             for m in range(1, params.Q_CAP.bit_length())
             if 1000 < p**m <= params.Q_CAP for eps in (1, -1)]
    for eps, p, m in rng.sample(above, 200):
        _check_maxima_membership(params.derive(eps, p, m), rng)


# sha256 of format_dump for the fields the enumeration is slow on, as the
# enumeration wrote them: sign, q, group, digest
ENUMERATED_DUMP_SHA256 = """
+ 19 SL c90784f3547302f9af039c46910e8a0fed698a6b3e6e2d009348f41522e4b8a4
+ 19 PSL 01678ed11f9bbbbff0679a76638675433daf9c9fae3f9e8bcfc9f1eb89bceddb
- 19 SL cf128d50e3f1722b64500d0dff8cb84ac681fafd7b041296ffd1712858821195
- 19 PSL 7d5e88b5206d2f2a4360ec20f6f02425925b4a5067da9c700f7a69962d22113f
+ 23 SL 4d01692d0a0335fe543068093dbab24de43593cd256bdf6403885892d54cf38e
+ 23 PSL ced0bae46aab2cfcaf560db3c3074b0c6aa53d2dd93a9d42658e10a0f945d6f1
- 23 SL 909c758908ebeee3d22d25f2aec5742f3895fd8d49768d9700ff4c82e9f229ad
- 23 PSL 46fa565e4e8495d67cdccf2a12686c1429cef6c9422d04c7c21730ccb5c9cc55
+ 25 SL 1bcf3f4d1ed2db4316adddb4ef4bb42ebdbf2ea062dcdb3d03f7e6111a7eef40
+ 25 PSL f1e7bf64f0b83c3865ec0b202d481cdb04978390604814f5417e48402c5cf923
- 25 SL f69736b72f5829e0c47efc06144151cc52c76183598dc258a7398b73b6ac2f14
- 25 PSL 27ac54db1770d70abcf207c0b49491e2e5ef3ee3b83f8c6bc154cb6c6a30c4af
+ 27 SL f163bbb65af9bd2deabbeec0f15cd757413d948be904de587b1e3aa86172a740
+ 27 PSL 3fcd3b03ddeb98123221071a6ddb93effc5e61df399da9728538e8fbb736871a
- 27 SL 169d472fd97934bfa79752897de72e9654c71d154e8cd1e1e883dad19a05d6c8
- 27 PSL 33fb62c00e4d3f0740374c5c21fa3368a6718901bedb30c099beb4ed38259a31
"""


def test_closed_form_matches_pinned_enumeration():
    rows = [ln.split() for ln in ENUMERATED_DUMP_SHA256.strip().splitlines()]
    assert len(rows) == 16
    for sign, q, group, digest in rows:
        pr = params.derive_from_q(params.sign_from_str(sign), int(q))
        text = spectrum.format_dump(pr, group)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (sign, q, group)


# sha256 over format_dump(SL) then format_dump(PSL) for every odd prime
# power q < 1000, q ascending and + before -, as the kernel reduction
# wrote them before the torus exponents took their closed form
DUMPS_BELOW_1000_SHA256 = (
    "c2af56582a6b8019dcc7f170d77bf2c50466202a0b21665a830891f5e6ab4c6f")


def test_dumps_below_1000_pinned():
    digest = hashlib.sha256()
    groups = 0
    for p, m in _small_fields(999):
        for eps in (1, -1):
            groups += 1
            pr = params.derive(eps, p, m)
            for group in ("SL", "PSL"):
                digest.update(spectrum.format_dump(pr, group).encode())
    assert groups == 368
    assert digest.hexdigest() == DUMPS_BELOW_1000_SHA256


def test_omega_cache_stays_bounded():
    # more groups than the cache holds: the oldest tables are dropped and
    # a dropped group's tables come back the same when asked again
    maxsize = spectrum._omega_sets.cache_info().maxsize
    assert maxsize is not None
    fields = list(_small_fields(999))[:maxsize + 4]
    first = spectrum.omega(params.derive(1, *fields[0]), "PSL")
    for p, m in fields:
        for eps in (1, -1):
            spectrum.omega(params.derive(eps, p, m), "SL")
            assert spectrum._omega_sets.cache_info().currsize <= maxsize
    misses = spectrum._omega_sets.cache_info().misses
    assert spectrum.omega(params.derive(1, *fields[0]), "PSL") == first
    assert spectrum._omega_sets.cache_info().misses == misses + 1


def test_maxima_need_no_divisor_closure(monkeypatch, tmp_path, capsys):
    # omega_maxima, and verify --spectrum compute through it, read the
    # torus exponents alone: no divisor closure, no prime support
    def refuse(*args):
        raise AssertionError("the maxima path built a closure")

    monkeypatch.setattr(spectrum, "_divisors", refuse)
    monkeypatch.setattr(spectrum, "_prime_support", refuse)
    spectrum._omega_sets.cache_clear()
    out = tmp_path / "cert.json"
    for eps, sign in ((1, "+"), (-1, "-")):
        pr = params.derive(eps, 65521, 1)
        assert spectrum.omega_maxima(pr, "SL")
        assert cli.main(["construct", "--epsilon", sign, "--p", "65521",
                         "--m", "1", "--profile", "2", "--out",
                         str(out)]) == 0
        assert cli.main(["verify", "--spectrum", "compute", str(out)]) == 0
    assert capsys.readouterr().out.count("certificate OK") == 2
    spectrum._omega_sets.cache_clear()


def test_omega_builds_each_closure_once(monkeypatch):
    # one flavor's dump leaves the other flavor's closure unbuilt; omega
    # and the dumps of both flavors, twice over, factor the prime support
    # once and expand each maximum once
    calls = {"support": 0, "divisors": 0}
    support, divisors = spectrum._prime_support, spectrum._divisors

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(spectrum, "_prime_support",
                        counted("support", support))
    monkeypatch.setattr(spectrum, "_divisors", counted("divisors", divisors))
    spectrum._omega_sets.cache_clear()
    pr = params.derive(-1, 3, 3)
    maxima = [spectrum.omega_maxima(pr, group) for group in ("SL", "PSL")]
    spectrum.format_dump(pr, "PSL")
    assert spectrum._omega_sets(pr)[2][0] is None
    assert calls == {"support": 1, "divisors": len(maxima[1])}
    for _ in range(2):
        for group in ("SL", "PSL"):
            assert spectrum.parse_dump(spectrum.format_dump(pr, group))[2] \
                == spectrum.omega(pr, group)
    assert calls == {"support": 1, "divisors": sum(map(len, maxima))}


def test_omega_at_q_cap_scale():
    # the largest prime field derive() accepts, both signs, well within
    # a second; every order divides |SL4^eps(q)| and is divisor-closed
    start = time.perf_counter()
    for eps in (1, -1):
        pr = params.derive(eps, 65521, 1)
        q = pr.q
        group_order = q**6 * (q**2 - 1) * (q**3 - eps) * (q**4 - 1)
        for group in ("SL", "PSL"):
            table = spectrum.omega(pr, group)
            assert all(group_order % o == 0 for o in table)
            assert arith.member(table, 65521)
            assert not arith.member(table, 65521**2)
    assert time.perf_counter() - start < 5.0


def test_one_membership_test():
    assert verifier.in_spectrum is arith.member


def test_dump_round_trip():
    pr = params.derive(-1, 3, 1)
    for group in ("SL", "PSL"):
        text = spectrum.format_dump(pr, group)
        assert text.endswith("\n")
        back, back_group, orders = spectrum.parse_dump(text)
        assert back == pr
        assert back_group == group
        assert orders == spectrum.omega(pr, group)


def test_dump_header_frozen():
    pr = params.derive(1, 3, 1)
    text = spectrum.format_dump(pr, "PSL")
    lines = text.splitlines()
    assert lines[0] == "# epsilon=+ q=3 group=PSL"
    assert lines[1:] == [str(o) for o in OMEGA_PSL4_3]


def test_omega_refuses_unknown_flavor():
    with pytest.raises(ValueError, match="^unknown group flavor 'GL'$"):
        spectrum.omega(params.derive(1, 3, 1), "GL")


def test_parse_dump_refuses_empty_dump():
    for text in ("", "\n  \n"):
        with pytest.raises(ValueError, match="^empty spectrum dump$"):
            spectrum.parse_dump(text)


def test_parse_dump_rejects_garbage():
    with pytest.raises(ValueError):
        spectrum.parse_dump("no header\n1\n2\n")
    with pytest.raises(ValueError):
        spectrum.parse_dump("# epsilon=+ q=6 group=PSL\n1\n")  # q not a prime power
    with pytest.raises(ValueError):
        spectrum.parse_dump("# epsilon=+ q=3 group=PSL\n2\n1\n")  # not ascending
    with pytest.raises(ValueError):
        spectrum.parse_dump("# epsilon=+ q=3 group=PSL\n1\nx\n")
    # orders are ASCII decimals without sign, leading zero or underscore,
    # and the header's q is ASCII too
    head = "# epsilon=+ q=3 group=PSL\n"
    for text in (head + "-4\n0\n1_0\n",          # was read as (-4, 0, 10)
                 head + "0\n1\n", head + "1\n+2\n", head + "1\n02\n",
                 head + "1\n1_0\n", head + "1\n\u0663\n", head + "1\n\u00b3\n",
                 "# epsilon=+ q=\u0663 group=PSL\n1\n",  # Arabic-Indic 3
                 head + "1\n" + "9" * 40 + "\n",
                 head + "1\n" + "9" * 4000 + "\n"):
        with pytest.raises(ValueError):
            spectrum.parse_dump(text)
    # 39 digits are the most an order line may have
    _, _, orders = spectrum.parse_dump(head + "1\n" + "9" * 39 + "\n")
    assert orders == (1, 10**39 - 1)

