"""The closed-form verifier against the direct one in verifier_reference.

verify takes V4 and V5 as one gcd each, selection shapes by one lookup,
the profile checks without per-entry loops, and V7 and the case-D data
from its own helpers.  None of that may change a report, a
MalformedCertificate message, or which inputs are accepted: every grid
certificate, the benchmark's wide pool and seeded random tampers give the
same outcome under both.
"""

import ast
import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import verifier_reference as ref
import witness_reference
from sl4witness import params, spectrum, verifier, witness
from sl4witness.verifier import MalformedCertificate
from sl4witness.witness import Selection

ROOT = Path(__file__).resolve().parents[1]


def _outcome(verify, cert, **kwargs):
    try:
        return ("report", verify(cert, **kwargs))
    except MalformedCertificate as exc:
        return ("malformed", str(exc))
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__,)


@pytest.fixture(scope="module")
def grid(grid_inputs):
    return [witness.construct(pr, profile) for pr, profile in grid_inputs]


@lru_cache(maxsize=None)
def _psl(pr):
    return spectrum.omega(pr, "PSL")


def test_grid_reports_match_reference(grid):
    assert len(grid) == 1848
    for cert in grid:
        for kwargs in ({}, {"psl_orders": _psl(cert.params)}):
            got = verifier.verify(cert, **kwargs)
            assert got.ok
            assert got == ref.verify(cert, **kwargs)


def test_wide_pool_reports_match_reference():
    pool = ROOT / "bench" / "golden" / "wide.txt"
    lines = [ln.split() for ln in pool.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    assert len(lines) == 2048
    for sign, p, m, profile, _digest in lines:
        pr = params.derive(1 if sign == "+" else -1, int(p), int(m))
        cert = witness.construct(pr, tuple(map(int, profile.split(","))))
        got = verifier.verify(cert, psl_orders=_psl(cert.params))
        assert got.ok
        assert got == ref.verify(cert, psl_orders=_psl(cert.params))


# Replacement selection positions: every shape, and the malformed kinds.
_POSITIONS = (list(itertools.chain.from_iterable(
    itertools.combinations((1, 2, 3, 4), k) for k in range(5)))
    + [(0,), (5,), (3, 1), (1, 1), (2, 2, 3), [1, 3], (1, 2, 3, 4, 4)])
_ENTRIES = (-1, 0, 1, 2, 3, 4, 1.0, 2.5, "1", None, True)


def _tamper(cert, rnd):
    """One random change of one field of cert."""
    pr, N = cert.params, cert.theta_order
    if not isinstance(N, int) or N < 2:  # an earlier tamper broke it
        N = 5
    kind = rnd.randrange(12)
    if kind == 0:
        exps = list(cert.exponents)
        exps[rnd.randrange(len(exps))] = rnd.choice(
            (rnd.randrange(N), -1, N, 0, exps[0], exps[-1], 1.5))
        return cert._replace(exponents=tuple(exps))
    if kind == 1:
        exps = list(cert.exponents)
        rnd.shuffle(exps)
        return cert._replace(exponents=tuple(exps[:rnd.choice((3, 4, 4))]))
    if kind == 2:
        n = rnd.choice((N + 1, N - 1, 2 * N, rnd.randrange(1, 3 * N), 1,
                        "7"))
        return cert._replace(theta_order=n)
    if kind == 3:
        c = cert.claimed_order
        c = rnd.choice((c + 1, c * rnd.randrange(2, 6), max(1, c // 2), 0,
                        1, rnd.randrange(1, 10**6)))
        if rnd.random() < 0.05:
            return cert._replace(claimed_order=str(c))
        return cert._replace(claimed_order=c, target_order=rnd.choice(
            (pr.p * c, cert.target_order, pr.p * c + 1)))
    if kind == 4:
        return cert._replace(target_order=rnd.choice(
            (0, cert.target_order + 1, cert.claimed_order)))
    if kind in (5, 6):
        sels = list(cert.selections)
        if sels and kind == 5:
            i = rnd.randrange(len(sels))
            sels[i] = Selection(sels[i].factor, rnd.choice(_POSITIONS))
        elif sels:
            op = rnd.randrange(3)
            if op == 0:
                del sels[rnd.randrange(len(sels))]
            elif op == 1:
                sels.append(rnd.choice(sels))
            else:
                i = rnd.randrange(len(sels))
                sels[i] = Selection(rnd.randrange(-1, pr.m + 1),
                                    sels[i].positions)
        else:
            sels.append(Selection(rnd.randrange(pr.m),
                                  rnd.choice(_POSITIONS)))
        return cert._replace(selections=tuple(sels))
    if kind == 7:
        profile = list(cert.profile)
        if rnd.random() < 0.8:
            profile[rnd.randrange(len(profile))] = rnd.choice(_ENTRIES)
        else:
            profile.append(rnd.randrange(4))
        return cert._replace(profile=tuple(profile))
    if kind == 8:
        return cert._replace(case=rnd.choice(params.ALL_CASES + ("E_X",)))
    if kind == 9:
        if cert.case_d is None:
            return cert._replace(case=params.CASE_D)
        cd = cert.case_d
        field = rnd.choice(cd._fields[:6])
        value = getattr(cd, field)
        return cert._replace(case_d=cd._replace(**{field: rnd.choice(
            (value + 1, value + 2, -value, 0, 1, 2 * value)
        )}))
    if kind == 10:
        return cert._replace(case_d=None)
    return cert._replace(params=pr._replace(q=pr.q + 2))


def test_random_tampers_match_reference(grid):
    rnd = random.Random(20261019)
    case_d = [c for c in grid if c.case_d is not None]
    kinds = set()
    labels = set()
    for trial in range(6000):
        base = rnd.choice(grid if trial % 3 else case_d)
        cert = base
        for _ in range(rnd.choice((1, 1, 2, 3))):
            cert = _tamper(cert, rnd)
        kwargs = {"strict_values": rnd.random() < 0.7}
        if rnd.random() < 0.3:
            kwargs["psl_orders"] = _psl(base.params)
        got = _outcome(verifier.verify, cert, **kwargs)
        assert got == _outcome(ref.verify, cert, **kwargs), cert
        kinds.add(got[0])
        if got[0] == "report":
            labels.update(ref.failed_checks(got[1]))
            labels.update(label for label, _ in got[1].warnings)
    # the tampers reach every check label and malformed input, and no
    # tamper makes either verifier raise anything else
    assert kinds == {"report", "malformed"}
    assert labels == set(verifier.CHECK_LABELS)


_CERT = witness.construct(params.derive(1, 3, 2), (2, 2))


@st.composite
def exponent_sets(draw):
    """A modulus N and four exponents mod N, often repeated or zero."""
    n = draw(st.integers(2, 10**12))
    common = st.sampled_from((0, 1, n - 1, n // 2, n // 3,
                              draw(st.integers(0, n - 1))))
    exps = draw(st.lists(common | st.integers(0, n - 1), min_size=4,
                         max_size=4))
    return n, tuple(exps)


@settings(max_examples=400, deadline=None)
@given(exponent_sets())
def test_element_order_is_one_gcd(data):
    n, exps = data
    order = ref.element_order(n, exps)
    cert = _CERT._replace(theta_order=n, exponents=tuple(exps))
    report = verifier.verify(cert._replace(claimed_order=order))
    assert "V4" not in ref.failed_checks(report)
    report = verifier.verify(cert._replace(claimed_order=order + 1))
    assert ("V4", f"element order is {order}, certificate claims "
                  f"{order + 1}") in report.failures


@settings(max_examples=400, deadline=None)
@given(exponent_sets())
def test_scalar_period_is_one_gcd(data):
    n, exps = data
    k_s = ref.scalar_period(n, exps)
    cert = _CERT._replace(theta_order=n, exponents=tuple(exps))
    report = verifier.verify(cert._replace(claimed_order=k_s))
    assert "V5" not in ref.failed_checks(report)
    report = verifier.verify(cert._replace(claimed_order=2 * k_s))
    assert [msg for label, msg in report.failures if label == "V5"] == [
        f"g^{k_s} is scalar and {k_s} properly divides the claimed order, "
        "so the projective order is smaller"]


def _call(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class _UnhashableOne:
    """Equal to 1 but unhashable, so only an entry-by-entry test sees it."""

    __hash__ = None

    def __eq__(self, other):
        return other == 1


def test_profile_checks_match_reference():
    entries = tuple(range(-1, 5)) + (1.0, 2.5, "1", None, True, [2],
                                     _UnhashableOne())
    signs = [params.derive(1, 3, 1), params.derive(-1, 3, 1),
             params.derive(1, 5, 1), params.derive(-1, 5, 1)]
    count = 0
    for length in range(5):
        for profile in itertools.product(entries, repeat=length):
            for m in (length, length + 1):
                assert (_call(params.check_profile, profile, m)
                        == _call(ref.check_profile, profile, m))
            for pr in signs:
                pr = pr._replace(m=length)
                assert (_call(params.classify_profile, profile, pr)
                        == _call(ref.classify_profile, profile, pr))
            count += 1
    assert count == sum(len(entries) ** k for k in range(5))


def test_case_d_shape_table_matches_constructor():
    # two derivations: the verifier's from the case-D exponent formulas,
    # the constructor's written out by hand
    assert verifier._CASE_D_SHAPES == witness._SHAPE_COEFFS
    assert len(verifier._SHAPES) == 15


def _imports_from_witness(tree):
    """(module imported, names) for every import that reaches witness."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names
                      if a.name.split(".")[-1] == "witness"]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if (node.module or "").split(".")[-1] == "witness":
                found.append((node.module, names))
            elif "witness" in names:
                found.append((node.module, ["witness"]))
    return found


def test_verifier_takes_only_records_from_witness():
    tree = ast.parse(Path(verifier.__file__).read_text(encoding="utf-8"))
    found = _imports_from_witness(tree)
    assert found == [("witness", ["Adjustment", "CaseDInternals",
                                  "Selection", "WitnessCertificate"])]
    assert _imports_from_witness(ast.parse("from . import witness")) != []
    assert _imports_from_witness(ast.parse("import sl4witness.witness")) != []


def test_verify_does_not_call_the_constructor_helpers(grid, monkeypatch):
    rnd = random.Random(7)
    certs = grid[::7] + [_tamper(rnd.choice(grid), rnd) for _ in range(500)]
    before = [_outcome(verifier.verify, c) for c in certs]

    def broken(*args, **kwargs):
        raise AssertionError("verifier called a constructor helper")

    for name in ("compute_AB", "case_d_exponents", "fixed_point_exponent"):
        monkeypatch.setattr(witness, name, broken)
    assert [_outcome(verifier.verify, c) for c in certs] == before


def _wrong_fixed_point(*args):
    return 0


def _wrong_case_d_exponents(a, b, r, t, eps, q,
                            _right=witness_reference.case_d_exponents):
    # the inverse element: its fixed-point exponent vanishes too
    return tuple(-e % t for e in _right(a, b, r, t, eps, q))


def _wrong_compute_AB(profile, pr, selections,
                      _right=witness_reference.compute_AB):
    # same 2-part and residue mod (q - eps)_2, so (a, b) and the exponents
    # come out as before and only the recorded coefficient is off
    A, B = _right(profile, pr, selections)
    return A * (1 + 2**40), B


def _wrong_construct_compute_AB(shapes, weights, moved, pr,
                                _right=witness.compute_AB):
    # construct's compute_AB, off in the same way
    A, B = _right(shapes, weights, moved, pr)
    return A * (1 + 2**40), B


def _rejects_what_is_built(grid, construct):
    """Rebuild the grid's case C and D certificates with construct; every
    one that comes out changed must fail verify.  Returns how many did."""
    honest = {(c.params, c.profile): c for c in grid
              if c.case in (params.CASE_C, params.CASE_D)}
    changed = 0
    for (pr, profile), good in honest.items():
        try:
            cert = construct(pr, profile)
        except witness.ConstructionError:
            continue
        if cert != good:
            changed += 1
            assert not verifier.verify(cert).ok, cert
    return changed


@pytest.mark.parametrize("name, wrong", [
    ("fixed_point_exponent", _wrong_fixed_point),
    ("case_d_exponents", _wrong_case_d_exponents),
    ("compute_AB", _wrong_compute_AB),
])
def test_verify_rejects_what_a_wrong_constructor_helper_builds(
        grid, monkeypatch, name, wrong):
    # the reference constructor calls each helper on every certificate of
    # a case that uses it, and builds what construct builds
    # (test_witness_equivalence)
    monkeypatch.setattr(witness_reference, name, wrong)
    assert _rejects_what_is_built(grid, witness_reference.construct) > 0


@pytest.mark.parametrize("name, wrong", [
    ("fixed_point_exponent", _wrong_fixed_point),
    ("case_d_exponents", _wrong_case_d_exponents),
    ("compute_AB", _wrong_construct_compute_AB),
])
def test_verify_rejects_what_construct_builds_with_a_wrong_helper(
        grid, monkeypatch, name, wrong):
    # construct reaches fixed_point_exponent on every certificate and
    # compute_AB, through balance_two_parts, on every case-D certificate
    monkeypatch.setattr(witness, name, wrong)
    assert _rejects_what_is_built(grid, witness.construct) > 0
