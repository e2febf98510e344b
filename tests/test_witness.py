"""Construction tests: frozen worked examples plus whole-grid invariants."""

import math
from itertools import product

import pytest

from sl4witness import arith, params, verifier, witness
from sl4witness.witness import Selection


def test_classify_profile():
    pr9 = params.derive(1, 3, 2)    # 9 = +1 mod 4
    pr9u = params.derive(-1, 3, 2)  # mixed profiles go the other way
    assert witness.classify_profile((0, 0), pr9) == witness.CASE_A
    assert witness.classify_profile((2, 2), pr9) == witness.CASE_A
    assert witness.classify_profile((0, 2), pr9) == witness.CASE_A
    assert witness.classify_profile((1, 0), pr9) == witness.CASE_B
    assert witness.classify_profile((3, 1), pr9) == witness.CASE_B
    assert witness.classify_profile((2, 1), pr9) == params.CASE_D
    assert witness.classify_profile((2, 1), pr9u) == witness.CASE_C
    pr27u = params.derive(-1, 3, 3)  # 27 = 3 = eps mod 4
    assert witness.classify_profile((2, 1, 0), pr27u) == params.CASE_D
    pr27 = params.derive(1, 3, 3)
    assert witness.classify_profile((2, 1, 0), pr27) == witness.CASE_C


def test_classify_profile_validation():
    pr = params.derive(1, 3, 2)
    with pytest.raises(ValueError):
        witness.classify_profile((1,), pr)
    with pytest.raises(ValueError):
        witness.classify_profile((1, 4), pr)


def test_case_a_worked_example():
    cert = witness.construct(params.derive(1, 3, 2), (2, 2))
    assert cert.case == witness.CASE_A
    assert cert.theta_order == 41
    assert cert.exponents == (1, 9, 40, 32)
    assert cert.selections == (Selection(0, (1, 3)), Selection(1, (1, 3)))
    assert cert.claimed_order == 41
    assert cert.target_order == 123
    assert cert.case_d is None
    assert verifier.verify(cert).ok


def test_case_a_all_zero_profile():
    cert = witness.construct(params.derive(1, 3, 1), (0,))
    assert cert.case == witness.CASE_A
    assert cert.theta_order == 5
    assert cert.exponents == (1, 3, 4, 2)
    assert cert.selections == ()
    assert verifier.verify(cert).ok


def test_case_b_worked_example():
    cert = witness.construct(params.derive(1, 3, 1), (3,))
    assert cert.case == witness.CASE_B
    assert cert.theta_order == 13
    assert cert.exponents == (1, 3, 9, 0)
    assert cert.selections == (Selection(0, (1, 2, 3)),)
    assert verifier.verify(cert).ok
    cert = witness.construct(params.derive(1, 3, 1), (1,))
    assert cert.selections == (Selection(0, (4,)),)
    assert verifier.verify(cert).ok


def test_case_c_worked_example():
    # baseline selected values multiply to -1 here, so one odd slot trades
    # its fixed value for the position carrying -1
    cert = witness.construct(params.derive(-1, 7, 2), (2, 1))
    assert cert.case == witness.CASE_C
    assert cert.theta_order == 32
    assert cert.exponents == (1, 15, 16, 0)
    assert cert.selections == (Selection(0, (3, 4)), Selection(1, (3,)))
    assert verifier.verify(cert).ok


def test_case_d_worked_example():
    cert = witness.construct(params.derive(1, 3, 2), (2, 1))
    assert cert.case == params.CASE_D
    assert cert.theta_order == 40
    assert cert.exponents == (1, 9, 10, 20)
    assert cert.claimed_order == 40
    assert cert.target_order == 120
    cd = cert.case_d
    assert (cd.r, cd.t, cd.a, cd.b) == (5, 40, 1, 2)
    assert (cd.coeff_a, cd.coeff_rb) == (10, 3)
    assert cd.adjustments == ()
    assert verifier.verify(cert).ok


def test_case_d_unitary_27():
    cert = witness.construct(params.derive(-1, 3, 3), (2, 1, 0))
    assert cert.case == params.CASE_D
    cd = cert.case_d
    assert (cd.r, cd.t) == (13, 52)
    assert (cd.coeff_a, cd.coeff_rb) == (-26, 3)
    assert (cd.a, cd.b) == (1, 2)
    assert cert.exponents == (1, 25, 26, 0)
    assert verifier.verify(cert).ok


def test_case_d_balancing_adjustments():
    # (2, 1, 3) at q = 27, eps = -1: baseline coefficients are -26 and -6,
    # both with 2-part 2; the flip lands them on 52 and -12 (both 4), and
    # the swap then separates them for good
    cert = witness.construct(params.derive(-1, 3, 3), (2, 1, 3))
    cd = cert.case_d
    kinds = [(adj.kind, adj.factor) for adj in cd.adjustments]
    assert kinds == [("flip", 1), ("swap", 0)]
    assert (cd.coeff_a, cd.coeff_rb) == (104, -12)
    assert cert.selections == (
        Selection(0, (3, 4)), Selection(1, (4,)), Selection(2, (1, 2, 4)))
    assert verifier.verify(cert).ok


def test_compute_ab_frozen():
    # q = 9, eps = +1: case D's base shapes with W_1 = 3, W_2 = 1 for the
    # profile (2, 1) and W_2 = 1, W_3 = 3 for (2, 3)
    pr = params.derive(1, 3, 2)
    shapes = witness._BASE_SHAPES[params.CASE_D]
    assert witness.compute_AB(shapes, (0, 3, 1, 0), [], pr) == (10, 3)
    assert witness.compute_AB(shapes, (0, 0, 1, 3), [], pr) == (10, -3)
    # slot 0 of (2, 1) swapped from (1, 2) to (3, 4)
    moved = [(0, (1, 2), (3, 4))]
    assert witness.compute_AB(shapes, (0, 3, 1, 0), moved, pr) == (-10, 3)
    # a shape that is not case D's has no coefficients
    with pytest.raises(KeyError):
        witness.compute_AB((None, (1, 4), None, None), (0, 1, 0, 0), [], pr)


def test_solve_ab_frozen():
    pr = params.derive(1, 3, 2)  # (q - eps)_2 = 8
    assert witness.solve_ab(10, 3, pr, 5) == (1, 2)
    assert witness.solve_ab(-10, 3, pr, 5) == (1, 6)
    with pytest.raises(ValueError):
        witness.solve_ab(2, 6, pr, 5)  # equal 2-parts must be rejected


def test_solve_ab_invariants_random_inputs():
    # any coefficients with distinct 2-parts must give a valid solution
    import random
    rnd = random.Random(4004)
    pr = params.derive(1, 3, 2)
    s2 = arith.two_part(pr.q - pr.epsilon)
    for _ in range(500):
        A = rnd.randint(-500, 500)
        B = rnd.randint(-500, 500)
        if A == 0 or B == 0:
            continue
        if witness.arith.two_part(A) == witness.arith.two_part(B):
            continue
        a, b = witness.solve_ab(A, B, pr, 5)
        assert (a * A + 5 * b * B) % s2 == 0
        assert (a + b) % 2 == 1
        assert math.gcd(a, 5) == 1


def test_case_moduli_come_from_target_orders(monkeypatch):
    # construct and verify read every case modulus from the cached
    # target_orders, so each primitive-divisor search runs once per field
    calls = []
    real = arith.primitive_prime_divisor

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arith, "primitive_prime_divisor", counting)
    params.target_orders.cache_clear()
    pr = params.derive(1, 5, 2)
    cases = set()
    for profile in product((0, 1, 2, 3), repeat=2):
        cert = witness.construct(pr, profile)
        cases.add(cert.case)
        assert verifier.verify(cert).ok
    assert cases == {witness.CASE_A, witness.CASE_B, params.CASE_D}
    assert sorted(calls) == [(25, 2, 1), (25, 3, 1), (25, 4, 1)]


@pytest.mark.parametrize("case, eps, profile, searched", [
    (witness.CASE_A, 1, (2, 0), [(25, 4, 1)]),
    (witness.CASE_B, 1, (1, 0), [(25, 3, 1)]),
    (witness.CASE_C, -1, (2, 1), []),
    (params.CASE_D, 1, (2, 1), [(25, 2, 1)]),
])
def test_each_case_runs_only_its_own_search(monkeypatch, case, eps, profile,
                                            searched):
    # a lone certificate pays for the primitive-divisor search of its own
    # case's N and no other; case C's N = (q^2 - 1)_2 needs none
    calls = []
    real = arith.primitive_prime_divisor

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arith, "primitive_prime_divisor", counting)
    params.target_orders.cache_clear()
    cert = witness.construct(params.derive(eps, 5, 2), profile)
    assert cert.case == case
    assert verifier.verify(cert).ok
    assert calls == searched


def test_construct_deterministic():
    pr = params.derive(-1, 5, 2)
    one = witness.construct(pr, (2, 3))
    two = witness.construct(pr, (2, 3))
    assert one == two


def test_grid_invariants():
    """Every profile over a small grid verifies, and per-case bookkeeping
    holds: case D stays within two adjustments and keeps its congruence,
    case C only ever uses the documented position shapes."""
    c_shapes = {(4,), (3,), (3, 4), (1, 2, 4), (1, 2, 3)}
    for eps in (1, -1):
        for p in (3, 5, 7):
            for m in (1, 2, 3):
                pr = params.derive(eps, p, m)
                for profile in product((0, 1, 2, 3), repeat=m):
                    cert = witness.construct(pr, profile)
                    report = verifier.verify(cert)
                    assert report.ok, (eps, p, m, profile, report.failures)
                    assert cert.target_order == p * cert.claimed_order
                    if cert.case == params.CASE_D:
                        cd = cert.case_d
                        assert len(cd.adjustments) <= 2
                        s2 = arith.two_part(pr.q - eps)
                        assert (cd.a * cd.coeff_a
                                + cd.r * cd.b * cd.coeff_rb) % s2 == 0
                        assert (cd.a + cd.b) % 2 == 1
                        assert math.gcd(cd.a, cd.r) == 1
                        assert cert.theta_order == cd.r * s2
                    if cert.case == witness.CASE_C:
                        for sel in cert.selections:
                            assert sel.positions in c_shapes


def test_selected_values_always_distinct():
    # the collision fallback exists, but no grid input should ever need it
    for eps in (1, -1):
        for p in (3, 5, 7, 11, 13):
            for m in (1, 2):
                pr = params.derive(eps, p, m)
                for profile in product((0, 1, 2, 3), repeat=m):
                    cert = witness.construct(pr, profile)
                    for sel in cert.selections:
                        vals = [cert.exponents[j - 1] for j in sel.positions]
                        assert len(set(vals)) == len(vals)


def test_construct_rejects_bad_profiles():
    pr = params.derive(1, 3, 2)
    with pytest.raises(ValueError):
        witness.construct(pr, (1, 2, 3))
    with pytest.raises(ValueError):
        witness.construct(pr, (5, 0))


def test_fixed_point_exponent():
    # slot 0 selects (1, 2) and slot 1 selects (3,), at p = 3
    exps = (1, 9, 10, 20)
    shapes = witness._BASE_SHAPES[params.CASE_D]
    assert (witness.fixed_point_exponent(exps, shapes, (0, 3, 1, 0), [], 3)
            == (1 + 9) + 3 * 10)
    # the same selections, slot 1 retouched from a base shape (4,) to (3,)
    shapes = (None, (4,), (1, 2), None)
    moved = [(1, (4,), (3,))]
    assert (witness.fixed_point_exponent(exps, shapes, (0, 3, 1, 0), moved, 3)
            == (1 + 9) + 3 * 10)


def test_helpers_run_once_per_use_on_the_grid(grid_inputs, monkeypatch):
    # bench/tracing.py counts these two by name, so construct must reach
    # them: the fixed-point exponent once per certificate and once more per
    # case-C certificate, (A, B) once per case-D certificate and once more
    # after each retouch (2222 and 465 over the 1848 grid certificates)
    calls = {"fixed_point_exponent": 0, "compute_AB": 0}
    for name in calls:
        def counting(*args, _real=getattr(witness, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(witness, name, counting)
    cases = {case: 0 for case in params.ALL_CASES}
    adjustments = 0
    for pr, profile in grid_inputs:
        cert = witness.construct(pr, profile)
        cases[cert.case] += 1
        if cert.case_d is not None:
            adjustments += len(cert.case_d.adjustments)
    assert (calls["fixed_point_exponent"]
            == len(grid_inputs) + cases[params.CASE_C])
    assert calls["compute_AB"] == cases[params.CASE_D] + adjustments
    assert calls == {"fixed_point_exponent": 2222, "compute_AB": 465}
