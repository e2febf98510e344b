"""Fixtures shared across test modules."""

import itertools
from pathlib import Path

import pytest

from sl4witness import params

GRID_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.fixture(scope="session")
def grid_inputs():
    """Every (params, profile) of the grid: eps = +-1, p in GRID_PRIMES,
    m = 1, 2, 3 and every profile over (0, 1, 2, 3) of length m."""
    inputs = [(params.derive(eps, p, m), profile)
              for eps in (1, -1) for p in GRID_PRIMES for m in (1, 2, 3)
              for profile in itertools.product((0, 1, 2, 3), repeat=m)]
    assert len(inputs) == 1848
    return inputs


@pytest.fixture(scope="session")
def wide_inputs():
    """Every (params, profile) of the benchmark's recorded wide pool: 2,048
    requests over the fields with q <= Q_CAP, most of them distinct."""
    root = Path(__file__).resolve().parents[1]
    pool = root / "bench" / "golden" / "wide.txt"
    inputs = [(params.derive(1 if sign == "+" else -1, int(p), int(m)),
               tuple(map(int, profile.split(","))))
              for sign, p, m, profile, _digest in (
                  ln.split() for ln in pool.read_text().splitlines()
                  if ln.strip() and not ln.startswith("#"))]
    assert len(inputs) == 2048
    return inputs
