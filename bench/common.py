"""Paths, digests and the recorded-output files shared by the benchmark.

The golden files under golden/ hold the outputs the seed commit produced;
record_golden.py writes them and the benchmark compares against them, so
a later change cannot alter a certificate document, a spectrum dump or a
realized matrix without every affected item counting as failed.
"""

import hashlib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
OUT = BENCH_DIR / "out"

# Grid universe: every profile of every (eps, p, m) with p among these
# primes and m in GRID_DEGREES.  p^3 <= Q_CAP holds for all of them.
GRID_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
GRID_DEGREES = (1, 2, 3)

# wide draws its requests from a fixed pool, since the digests of every
# request a seed can ask for have to be recorded in advance.
WIDE_POOL_SEED = 20260814
WIDE_POOL_SIZE = 2048

# crosscheck realizes grid certificates with q <= REALIZE_Q_MAX and
# theta order N <= REALIZE_N_MAX.  The N cap comes from the parent's order
# check, which multiplies the matrix up to N times: certificates with
# N ~ 1e5..1e6 (p in {7, 11}, m = 3) would take minutes to hours.  The q cap
# comes from element_of_order's index scan, which took 1.5 s at q = 169 and
# 19.8 s at q = 1369 for a single N = 40 certificate.
REALIZE_Q_MAX = 125
REALIZE_N_MAX = 1500
SAMPLE_QS = (3, 5)

SPECTRUM_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)


def digest16(text: str) -> str:
    """First 64 bits of the sha256 of text, as hex."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sign(eps: int) -> str:
    return "+" if eps == 1 else "-"


def cert_key(eps: int, p: int, m: int, profile) -> str:
    return f"{sign(eps)} {p} {m} {','.join(map(str, profile))}"


def parse_key(fields):
    """Inverse of cert_key on a split line: (eps, p, m, profile)."""
    eps = 1 if fields[0] == "+" else -1
    profile = tuple(int(k) for k in fields[3].split(","))
    return eps, int(fields[1]), int(fields[2]), profile


def read_lines(name: str):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]


def realized_text(mat) -> str:
    """Canonical text of a realized matrix, field modulus included."""
    return repr((mat.field.p, mat.field.k, mat.field.modulus, mat.rows))
