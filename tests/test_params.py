import time
from functools import lru_cache

import pytest

from sl4witness import arith, params, spectrum, verifier, witness


def test_derive_linear_nine():
    # case C's N is (q^2 - 1)_2 = 16 and case D's 5 * (q - 1)_2 = 40; the
    # prime support covers q -+ 1, 91 = 7 * 13 and 82 = 2 * 41
    pr = params.derive(1, 3, 2)
    assert pr == (1, 3, 2, 9)
    assert params.target_orders(pr, params.CASE_C) == 16
    assert params.target_orders(pr, params.CASE_D) == 40
    assert spectrum._prime_support(pr) == {2, 5, 7, 13, 41}


def test_derive_unitary_fortynine():
    # (q^2 - 1)_2 = 32, (q + 1)_2 = 2; 2353 = 13 * 181 and 2402 = 2 * 1201
    pr = params.derive(-1, 7, 2)
    assert pr == (-1, 7, 2, 49)
    assert params.target_orders(pr, params.CASE_C) == 32
    assert params.target_orders(pr, params.CASE_D) is None
    assert spectrum._prime_support(pr) == {2, 3, 5, 13, 181, 1201}


def test_group_params_holds_only_the_four_integers():
    # a stored (q - eps)_2 of 4 at q = 9 made construct emit case D at
    # theta order 20 and verify pass it; no field is left to set apart
    # from the four that name the group
    pr = params.derive(1, 3, 2)
    with pytest.raises(ValueError):
        pr._replace(two_part_qme=4)
    cert = witness.construct(pr, (1, 2))
    assert (cert.case, cert.theta_order) == (params.CASE_D, 40)
    assert verifier.verify(cert).ok


def test_derive_validation():
    with pytest.raises(ValueError):
        params.derive(0, 3, 1)
    with pytest.raises(ValueError):
        params.derive(1, 2, 1)
    with pytest.raises(ValueError):
        params.derive(1, 4, 1)
    with pytest.raises(ValueError):
        params.derive(1, 9, 1)
    with pytest.raises(ValueError):
        params.derive(1, 3, 0)
    with pytest.raises(ValueError):
        params.derive(1, 3, 11)  # 3^11 > Q_CAP


def test_derive_bounds_m_before_power():
    # 3**(10**12) would never finish; the bound on m comes first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds supported bound"):
        params.derive(1, 3, 10**12)
    assert time.perf_counter() - start < 1.0
    assert params.derive(1, 3, 10).q == 3**10  # 59049 is still in


def test_derive_names_the_oversized_power():
    for p, m in ((41, 3), (3, 11), (3, 10**18)):
        with pytest.raises(ValueError) as info:
            params.derive(1, p, m)
        assert str(info.value) == f"q = {p}^{m} exceeds supported bound 65536"


def test_derive_from_q():
    assert params.derive_from_q(-1, 49) == params.derive(-1, 7, 2)
    for bad in (4, 6, 2**16 + 1):
        with pytest.raises(ValueError):
            params.derive_from_q(1, bad)
    for small in (-9, 0, 1, 2):
        with pytest.raises(ValueError, match=f"q must be .*, got {small}$"):
            params.derive_from_q(1, small)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds supported bound"):
        params.derive_from_q(1, 42535295865117425710771050546041187593)
    assert time.perf_counter() - start < 1.0


def _orders(pr):
    return tuple(params.target_orders(pr, case) for case in params.ALL_CASES)


def test_target_orders_linear_three():
    # N for cases A, B, C, D; 3 != 1 mod 4, so case D does not apply
    assert _orders(params.derive(1, 3, 1)) == (5, 13, 8, None)


def test_target_orders_linear_nine():
    assert _orders(params.derive(1, 3, 2)) == (41, 7, 16, 40)  # 40 = 5 * 8


def test_target_orders_unitary_three():
    # q = 3 = eps mod 4, but case D needs q > 3 (and indeed no odd prime
    # divides q^2 - 1 without dividing q - eps here)
    assert _orders(params.derive(-1, 3, 1)) == (5, 7, 8, None)


def test_target_orders_unitary_seven():
    pr = params.derive(-1, 7, 1)
    assert params.target_orders(pr, params.CASE_D) == 24  # 3 * 8


def test_target_orders_linear_five():
    assert _orders(params.derive(1, 5, 1)) == (13, 31, 8, 12)  # 12 = 3 * 4


def test_sign_helpers():
    assert params.sign_from_str("+") == 1
    assert params.sign_from_str("-") == -1
    assert params.sign_to_str(1) == "+"
    assert params.sign_to_str(-1) == "-"
    with pytest.raises(ValueError):
        params.sign_from_str("x")
    with pytest.raises(ValueError):
        params.sign_to_str(0)


@pytest.mark.parametrize("entry", [True, False, 1.0, 2.0, [1]])
def test_check_profile_refuses_entries_that_are_not_plain_ints(entry):
    # True, False and 1.0 hash and compare like 1, 0 and 1; the document
    # format refuses them, so the library does too
    with pytest.raises(ValueError, match=r"entries must lie in \{0, 1, 2, 3\}"):
        params.check_profile((entry, 2), 2)
    with pytest.raises(ValueError):
        params.classify_profile((2, entry), params.derive(1, 3, 2))


def test_check_profile_accepts_int_subclasses():
    # as the document format's plain-int test does: bool is the one
    # subclass of int it refuses
    class Entry(int):
        pass

    params.check_profile((Entry(2), Entry(0)), 2)
    assert (params.classify_profile((Entry(2), 1), params.derive(1, 3, 2))
            == params.CASE_D)


@pytest.mark.parametrize("args, message", [
    ((1, 3, True), "m must be an integer, got True"),
    ((1, 3, 1.0), "m must be an integer, got 1.0"),
    ((True, 5, 1), "epsilon must be +1 or -1"),
    ((1.0, 3, 1), "epsilon must be +1 or -1"),
    ((-1.0, 3, 1), "epsilon must be +1 or -1"),
    ((1, 3.0, 1), "p must be an odd prime, got 3.0"),
    ((1, True, 1), "p must be an odd prime, got True"),
    ((1, "3", 1), "p must be an odd prime, got '3'"),
])
def test_derive_refuses_arguments_that_are_not_plain_ints(args, message):
    # True and 1.0 compare and hash like 1, so derive(1, 3, True) once
    # built GroupParams(m=True), and a cache keyed by params would take
    # it for m = 1; a float p or m failed inside the arithmetic
    with pytest.raises(ValueError) as info:
        params.derive(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("q", [9.0, True, "9", None])
def test_derive_from_q_refuses_q_that_is_not_a_plain_int(q):
    with pytest.raises(ValueError) as info:
        params.derive_from_q(1, q)
    assert str(info.value) == f"q must be an odd prime power, got {q!r}"


def test_derive_accepts_int_subclasses():
    # as check_profile does: bool is the one subclass of int it refuses
    class Arg(int):
        pass

    assert params.derive(Arg(-1), Arg(7), Arg(2)) == params.derive(-1, 7, 2)
    assert params.derive_from_q(Arg(1), Arg(49)) == params.derive(1, 7, 2)


@pytest.fixture
def cold_derive():
    params.derive.cache_clear()
    yield params.derive
    params.derive.cache_clear()


def test_derive_memo_returns_what_a_cold_call_builds(cold_derive):
    cold = cold_derive(-1, 7, 2)
    warm = cold_derive(-1, 7, 2)
    assert warm is cold and warm == params.GroupParams(-1, 7, 2, 49)
    info = cold_derive.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 8)


@pytest.mark.parametrize("args", [(True, 3, 1), (1, 3, True), (1.0, 3, 1),
                                  (1, 3.0, 1), (1, 3, 1.0)])
def test_derive_memo_never_keeps_a_refused_input(cold_derive, args):
    # True, 1.0 and 3.0 hash like 1 and 3; a valid call for that field
    # first must not let them through either
    cold_derive(1, 3, 1)
    for _ in range(2):
        with pytest.raises(ValueError):
            cold_derive(*args)
    assert cold_derive.cache_info().currsize == 1


def test_derive_memo_keys_int_subclasses_apart(cold_derive):
    class Arg(int):
        pass

    plain = cold_derive(-1, 7, 2)
    sub = cold_derive(Arg(-1), Arg(7), Arg(2))
    assert sub == plain and type(sub.p) is Arg
    assert cold_derive.cache_info().currsize == 2


def test_derive_memo_stays_bounded(cold_derive):
    maxsize = cold_derive.cache_info().maxsize
    primes = [p for p in range(3, 200, 2) if arith.is_prime(p)]
    assert len(primes) > 2 * maxsize
    for p in primes:
        assert cold_derive(1, p, 1).q == p
        assert cold_derive.cache_info().currsize <= maxsize
    assert cold_derive(1, 3, 1) == params.GroupParams(1, 3, 1, 3)


def test_target_orders_stays_bounded():
    params.target_orders.cache_clear()
    maxsize = params.target_orders.cache_info().maxsize
    fields = [params.derive(eps, p, 1) for p in range(3, 200, 2)
              if arith.is_prime(p) for eps in (1, -1)]
    assert maxsize == 64 and len(fields) > maxsize
    for pr in fields:
        params.target_orders(pr, params.CASE_A)
        assert params.target_orders.cache_info().currsize <= maxsize
    params.target_orders.cache_clear()


def test_target_orders_bound_keeps_every_grid_hit(grid_inputs,
                                                  monkeypatch):
    # construct then verify over the 1,848 grid certificates, field after
    # field: the 64-entry cache hits as often as an unbounded one would
    def sweep():
        for pr, profile in grid_inputs:
            assert verifier.verify(witness.construct(pr, profile)).ok

    params.target_orders.cache_clear()
    sweep()
    bounded = params.target_orders.cache_info()
    params.target_orders.cache_clear()
    unbounded = lru_cache(maxsize=None)(params.target_orders.__wrapped__)
    monkeypatch.setattr(params, "target_orders", unbounded)
    monkeypatch.setattr(verifier, "target_orders", unbounded)
    sweep()
    assert unbounded.cache_info().currsize > bounded.maxsize
    assert (bounded.hits, bounded.misses) == (unbounded.cache_info().hits,
                                              unbounded.cache_info().misses)
