"""Write the recorded outputs under golden/ from the library as it stands.

Run once at the commit whose outputs become the reference:

    python3 bench/record_golden.py

Every line is derived from fixed constants in common.py, never from a
benchmark seed, so the files cover every input any seed can draw.
"""

import random
import sys
from itertools import product

from common import (GOLDEN, GRID_DEGREES, GRID_PRIMES, REALIZE_N_MAX,
                    REALIZE_Q_MAX, SAMPLE_QS, SPECTRUM_QS, SRC,
                    WIDE_POOL_SEED, WIDE_POOL_SIZE, cert_key, digest16,
                    realized_text, sha256, sign)

sys.path.insert(0, str(SRC))

from sl4witness import arith, cli, ffield, params, spectrum, witness  # noqa: E402


def document_text(cert) -> str:
    return cli.canonical_json(cli.certificate_to_document(cert))


def grid_certificates():
    for eps in (1, -1):
        for p in GRID_PRIMES:
            for m in GRID_DEGREES:
                pr = params.derive(eps, p, m)
                for profile in product((0, 1, 2, 3), repeat=m):
                    yield witness.construct(pr, profile)


def wide_pool():
    """Distinct requests drawn uniformly over the admissible fields, then
    uniformly over profiles, plus every request at the largest q."""
    fields = []
    for p in range(3, params.Q_CAP + 1, 2):
        if not arith.is_prime(p):
            continue
        m = 1
        while p**m <= params.Q_CAP:
            fields += [(1, p, m), (-1, p, m)]
            m += 1
    top = max(p**m for _, p, m in fields)
    pool = [(eps, p, m, profile) for eps, p, m in fields if p**m == top
            for profile in product((0, 1, 2, 3), repeat=m)]
    seen = set(pool)
    rng = random.Random(WIDE_POOL_SEED)
    while len(pool) < WIDE_POOL_SIZE:
        eps, p, m = rng.choice(fields)
        request = (eps, p, m, tuple(rng.randrange(4) for _ in range(m)))
        if request not in seen:
            seen.add(request)
            pool.append(request)
    return pool


def write(name: str, header: str, lines) -> None:
    with open(GOLDEN / name, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(line + "\n" for line in lines)


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    grid = list(grid_certificates())

    write("grid.txt", "eps p m profile digest16(canonical document)",
          (f"{cert_key(c.params.epsilon, c.params.p, c.params.m, c.profile)} "
           f"{digest16(document_text(c))}" for c in grid))

    lines = []
    for eps, p, m, profile in wide_pool():
        cert = witness.construct(params.derive(eps, p, m), profile)
        lines.append(f"{cert_key(eps, p, m, profile)} "
                     f"{digest16(document_text(cert))}")
    write("wide.txt", "eps p m profile digest16(canonical document)", lines)

    lines = []
    for q in SPECTRUM_QS:
        (pp,) = arith.factorize(q)
        for eps in (1, -1):
            pr = params.derive(eps, pp.prime, pp.exponent)
            for group in (spectrum.GROUP_FULL, spectrum.GROUP_PROJECTIVE):
                lines.append(f"{sign(eps)} {q} {group} "
                             f"{sha256(spectrum.format_dump(pr, group))}")
    write("spectrum.txt", "eps q group sha256(dump)", lines)

    lines = []
    for c in grid:
        pr = c.params
        if pr.q <= REALIZE_Q_MAX and c.theta_order <= REALIZE_N_MAX:
            mat = ffield.realize(c)
            lines.append(f"{cert_key(pr.epsilon, pr.p, pr.m, c.profile)} "
                         f"{c.theta_order} {digest16(realized_text(mat))}")
    write("realize.txt", "eps p m profile theta_order digest16(matrix)",
          lines)

    lines = []
    for q in SAMPLE_QS:
        pr = params.derive(1, q, 1)
        for group in (spectrum.GROUP_FULL, spectrum.GROUP_PROJECTIVE):
            orders = spectrum.omega(pr, group)
            lines.append(f"{q} {group} {','.join(map(str, orders))}")
    write("tables.txt", "q group orders", lines)


if __name__ == "__main__":
    main()
