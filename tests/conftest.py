"""Fixtures shared across test modules."""

import itertools

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
