"""construct against the reference constructor it replaced.

witness.construct builds each certificate in one pass over the profile;
tests/witness_reference.py keeps the earlier constructor verbatim.  The
two must return equal certificates (selections, case-D internals and
adjustments included) or raise the same error, on the whole benchmark
grid, the recorded wide pool, every profile at q = 3^8 and a seeded
sample at q = 3^10.
"""

import itertools
import random
from pathlib import Path

import pytest

import witness_reference as ref
from sl4witness import params, witness

ROOT = Path(__file__).resolve().parents[1]


def _outcome(construct, pr, profile):
    try:
        return construct(pr, profile)
    except (ValueError, witness.ConstructionError) as exc:
        return (type(exc).__name__, str(exc))


def _mismatches(pr, profiles):
    return [profile for profile in profiles
            if witness.construct(pr, profile) != ref.construct(pr, profile)]


def test_grid_matches_reference(grid_inputs):
    assert [(pr, profile) for pr, profile in grid_inputs
            if _mismatches(pr, [profile])] == []


def test_wide_pool_matches_reference():
    pool = ROOT / "bench" / "golden" / "wide.txt"
    lines = [ln.split() for ln in pool.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    assert len(lines) == 2048
    for sign, p, m, profile, _digest in lines:
        pr = params.derive(1 if sign == "+" else -1, int(p), int(m))
        assert _mismatches(pr, [tuple(map(int, profile.split(",")))]) == []


@pytest.mark.parametrize("eps", [1, -1])
def test_every_profile_at_q_3_8_matches_reference(eps):
    pr = params.derive(eps, 3, 8)
    profiles = list(itertools.product((0, 1, 2, 3), repeat=8))
    assert _mismatches(pr, profiles) == []
    # retouched case-D certificates are among them
    if eps == 1:
        assert any(witness.construct(pr, profile).case_d.adjustments
                   for profile in profiles[:4000]
                   if params.classify_profile(profile, pr) == params.CASE_D)


@pytest.mark.parametrize("eps", [1, -1])
def test_sample_at_q_3_10_matches_reference(eps):
    pr = params.derive(eps, 3, 10)
    rnd = random.Random(310 + eps)
    profiles = [tuple(rnd.randrange(4) for _ in range(10))
                for _ in range(20000)]
    assert _mismatches(pr, profiles) == []


def test_refusals_match_reference():
    pr = params.derive(1, 3, 2)
    bad = [(1,), (1, 2, 3), (5, 0), (-1, 2), (True, 2), (2, 1.0), ([1], 2),
           (None, 0)]
    for profile in bad:
        got = _outcome(witness.construct, pr, profile)
        assert got[0] == "ValueError"
        assert got == _outcome(ref.construct, pr, profile)


def test_longer_profile_than_derive_allows():
    # derive keeps m <= 16; a hand-made GroupParams past it still builds,
    # through records sized to the profile
    pr = params.derive(1, 3, 2)._replace(m=20)
    rnd = random.Random(20)
    profiles = [tuple(rnd.choice((1, 2)) for _ in range(20))
                for _ in range(5)] + [(2,) * 20, (0,) * 19 + (3,)]
    for profile in profiles:
        assert (_outcome(witness.construct, pr, profile)
                == _outcome(ref.construct, pr, profile))
