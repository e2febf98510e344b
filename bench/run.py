"""sl4witness benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The seed fixes the inputs; the library only ever sees those inputs.  A run
repeats rounds of the same inputs as often as they fit in --seconds, and
at least MIN_ROUNDS times.  Every round runs in a fresh interpreter started
by worker.py, and every spectrum request in a fresh process forked from it,
because every CLI invocation pays cold caches; at most one worker runs at
a time.  Each item's output is compared with the output the seed commit
recorded under golden/, and an item that raises, is rejected or disagrees
counts as failed.  A run also prints a record line (commit, versions,
nproc, src_lines, rounds, tail percentile, failed ratio) before the result.

Latencies are calibrated (calibrate.py): on a shared machine other
tenants slow the processor by a third or more, in bursts of under a second
and in spells of seconds to minutes, so the worker times a fixed piece of
reference work between items and scales each item's latency by the
reference speed around it.  An item's latency is the median of its
calibrated latencies over the rounds.  setup_s is calibrated the same
way, by the start of a bare interpreter, as the pure-Python reference did
not track it.  Over ten seeds on a 2-vCPU container the quartile spreads
of the calibrated metrics were 2 to 6 %, where the same runs'
uncalibrated ones, which the record line also gives, were 7 to 19 %.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round
twice, untraced and then with spans around each layer (tracing.py), and
prints the per-layer metrics of the traced rounds plus
trace.overhead_ratio; exact counts must repeat across traced rounds.

Workloads (see BENCHMARK.json for why each exists):

  grid        every profile of every (eps, p, m), p in GRID_PRIMES and
              m in 1..3, derive -> construct -> verify as `sweep` does,
              fields in seeded order
  wide        the recorded pool of requests over all admissible (eps, p, m)
              in seeded order, construct -> document -> JSON -> document
              -> verify
  spectrum    `verify --spectrum compute` on one seeded certificate per
              group with q <= 27, each request in its own process, plus
              both spectrum dumps written and parsed back
  crosscheck  realize on a fixed spread of grid certificates, and
              sample_orders batches at q = 3 and q = 5 with seeded RNG seeds,
              in seeded order

grid, wide and the realize items of crosscheck are the same for every seed,
which chooses their order: the cost of a seeded window of primes, a seeded
half of the pool or a seeded draw of certificates moved by 5 to 19 % from
seed to seed, most of the 25 % the bounds allow.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from calibrate import START_NOMINAL_S, interpreter_start_s
from common import (BENCH_DIR, OUT, ROOT, SAMPLE_QS, SRC, cert_key, digest16,
                    parse_key, read_lines)
from tracing import CACHE_KEYS, EXACT, HIT_RATIO, per_layer_units

WORKLOADS = ("grid", "wide", "spectrum", "crosscheck")
REALIZE_ITEMS = 32
SAMPLE_BATCHES = 16  # per q
SAMPLE_COUNT = 1000
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2
SETUP_SAMPLES = 9
# No round starts that could end past this, so a run exits well in time.
HARD_STOP_S = 140
WORKER_TIMEOUT_S = 150
# The tail is the latency with this many items beyond it.
TAIL_BEYOND = 10
# Spectrum requests run in processes forked from the worker; with a single
# OpenBLAS thread the worker has no other thread when it forks.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s",
                    "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inputs

def _documents(keys):
    """Canonical documents of recorded grid certificates, or None where
    the current library cannot reproduce the recorded document."""
    sys.path.insert(0, str(SRC))
    from sl4witness import cli, params, witness
    recorded = {cert_key(*parse_key(f)): f[4] for f in read_lines("grid.txt")}
    docs = []
    for eps, p, m, profile in keys:
        try:
            doc = cli.certificate_to_document(
                witness.construct(params.derive(eps, p, m), profile))
        except Exception:  # noqa: BLE001 - the item then fails
            doc = None
        if doc is not None and digest16(cli.canonical_json(doc)) != \
                recorded[cert_key(eps, p, m, profile)]:
            doc = None
        docs.append(doc)
    return docs


def _requests(lines):
    """Worker items and expected digests of recorded certificate lines."""
    items = []
    for f in lines:
        eps, p, m, profile = parse_key(f)
        items.append([eps, p, m, list(profile)])
    return items, [f[4] for f in lines]


def plan_grid(rng):
    fields = {}
    for f in read_lines("grid.txt"):
        fields.setdefault(tuple(f[:3]), []).append(f)
    order = list(fields)
    rng.shuffle(order)
    items, expect = _requests([f for key in order for f in fields[key]])
    return {"workload": "grid", "items": items}, expect


def plan_wide(rng):
    pool = read_lines("wide.txt")
    rng.shuffle(pool)
    items, expect = _requests(pool)
    return {"workload": "wide", "items": items}, expect


def plan_spectrum(rng):
    """One request per (eps, q), each with a seeded profile, seeded order."""
    dumps = {(f[0], int(f[1]), f[2]): f[3] for f in read_lines("spectrum.txt")}
    groups = sorted({(s, q) for s, q, _ in dumps})
    rng.shuffle(groups)
    grid = {}
    for f in read_lines("grid.txt"):
        eps, p, m, profile = parse_key(f)
        grid.setdefault((f[0], p**m), []).append((eps, p, m, profile))
    keys = [rng.choice(grid[g]) for g in groups]
    out = OUT / "spectrum"
    out.mkdir(parents=True, exist_ok=True)
    items, expect = [], []
    for (s, q), doc in zip(groups, _documents(keys)):
        cert_path = out / f"cert{s}{q}.json"
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        items.append([str(cert_path), str(out / f"dump{s}{q}")])
        expect.append(f"ok {dumps[(s, q, 'SL')]} {dumps[(s, q, 'PSL')]}"
                      if doc else "certificate differs from the recorded one")
    return {"workload": "spectrum", "items": items}, expect


def plan_crosscheck(rng):
    """The realize pool sorted by theta order is cut into REALIZE_ITEMS equal
    runs and the middle certificate of each is realized, the same ones for
    every seed: seeded draws from the runs moved the summed realize cost by
    19 % (quartile spread over 20 seeds).  The seed draws the sampling RNG
    seeds and where the batches go."""
    pool = sorted(read_lines("realize.txt"), key=lambda f: int(f[4]))
    cuts = [len(pool) * i // REALIZE_ITEMS for i in range(REALIZE_ITEMS + 1)]
    chosen = [pool[(lo + hi) // 2] for lo, hi in zip(cuts, cuts[1:])]
    docs = _documents([parse_key(f) for f in chosen])
    realize = [(["realize", doc], f[5] if doc else "certificate differs")
               for f, doc in zip(chosen, docs)]
    samples = [(["sample", q, SAMPLE_COUNT, rng.randrange(2**32)], "escapes=0")
               for q in SAMPLE_QS for _ in range(SAMPLE_BATCHES)]
    rng.shuffle(samples)
    # The first realize over a field pays for build_field, so the realize
    # items keep one order and the seed only places the batches among them.
    slots = set(rng.sample(range(len(realize) + len(samples)), len(samples)))
    entries = [samples.pop() if i in slots else realize.pop(0)
               for i in range(len(slots) + len(realize))]
    tables = {}
    for q, group, orders in read_lines("tables.txt"):
        tables.setdefault(q, {})[group] = [int(o) for o in orders.split(",")]
    job = {"workload": "crosscheck", "items": [e[0] for e in entries],
           "tables": tables}
    return job, [e[1] for e in entries]


PLANS = {"grid": plan_grid, "wide": plan_wide, "spectrum": plan_spectrum,
         "crosscheck": plan_crosscheck}


def make_plan(workload, seed, max_items):
    """The job a round's worker runs, and the expected output per item."""
    job, expect = PLANS[workload](random.Random(f"{workload}:{seed}"))
    if max_items is not None:
        job, expect = {**job, "items": job["items"][:max_items]}, \
            expect[:max_items]
    return job, expect


# ---------------------------------------------------------------------------
# rounds

def run_worker(job):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=WORKER_ENV, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["import_done"] - start
    return result


def run_round(plan, traced, spans_path=None):
    job, expect = plan
    res = run_worker({**job, "trace": traced,
                      "spans_path": str(spans_path) if spans_path else None})
    got = res["got"]
    failed = sum(g != e for g, e in zip(got, expect))
    failed += abs(len(got) - len(expect))
    layers = res["layers"] or {}
    if layers:
        hits, lookups = (layers.pop(k) for k in CACHE_KEYS)
        layers[HIT_RATIO] = hits / lookups if lookups else 0.0
    return {"latencies": res["latencies"], "raw": res["raw"],
            "failed": failed, "peak_rss_mb": res["rss_kb"] / 1024,
            "versions": {k: res[k] for k in ("python", "numpy", "sl4witness")},
            "layers": layers}


def item_latencies(rounds, key="latencies"):
    """Each item's median latency over the rounds; rounds share their
    items."""
    return [statistics.median(column)
            for column in zip(*(r[key] for r in rounds))]


def latency_metrics(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    return {"items_per_s": n / sum(ordered),
            "item_p50_ms": statistics.median(ordered) * 1e3,
            "item_tail_ms": ordered[max(0, n - TAIL_BEYOND - 1)] * 1e3}


def tail_percentile(n):
    """Percentile of the item with TAIL_BEYOND items beyond it."""
    return 100.0 * max(0, n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# run record

def _commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
        return next(ln.split()[0] for ln in packed if ln.endswith(" " + name))
    except (OSError, StopIteration):
        return "unknown"


def _src_lines():
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "sl4witness").glob("*.py")))


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--items", type=int, default=None,
                    help="cap the items per round; for quick harness "
                         "tests only")
    return ap.parse_args(argv)


def measure_setup():
    """SETUP_SAMPLES starts of a worker that runs no items, from its launch
    to `import sl4witness` returning, each calibrated by the start of a bare
    interpreter timed right before and right after it."""
    raw, calibrated = [], []
    before = interpreter_start_s(WORKER_ENV)
    for _ in range(SETUP_SAMPLES):
        setup = run_worker(
            {"workload": "grid", "items": [], "trace": False})["setup_s"]
        after = interpreter_start_s(WORKER_ENV)
        raw.append(setup)
        calibrated.append(setup * START_NOMINAL_S / ((before + after) / 2))
        before = after
    return {"raw": raw, "calibrated": calibrated}


def measure(plan, seconds, trace, spans_path):
    """Untraced rounds and, with trace, a traced round after each one."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(run_round(plan, False))
        if trace:
            traced.append(run_round(plan, True,
                                    spans_path if not traced else None))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        done = elapsed + per_round > seconds and len(plain) >= (
            MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
        if done or elapsed + per_round > HARD_STOP_S:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sl4witness").is_dir():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 1
    plan = make_plan(args.workload, args.seed, args.items)
    inputs = digest16(json.dumps(plan[0], sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    if spans_path.exists():
        spans_path.unlink()

    run_worker({"workload": "grid", "items": [], "trace": False})  # warm-up
    plain, traced = measure(plan, args.seconds, args.trace, spans_path)
    rounds = plain + traced
    setups = measure_setup()

    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    repeat_ok = all({k: r["layers"][k] for k in EXACT}
                    == {k: traced[0]["layers"][k] for k in EXACT}
                    for r in traced)
    if not repeat_ok:
        print("error: exact counters differ between traced rounds",
              file=sys.stderr)

    if args.trace:
        layers = {k: (traced[0]["layers"][k] if k in EXACT else
                      statistics.median(r["layers"][k] for r in traced))
                  for k in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            sum(item_latencies(traced)) / sum(item_latencies(plain)) - 1)
        values = layers
        units = per_layer_units()
    else:
        values = latency_metrics(item_latencies(plain))
        values["setup_s"] = statistics.median(setups["calibrated"])
        values["peak_rss_mb"] = statistics.median(
            r["peak_rss_mb"] for r in plain)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in units.items()}

    n = len(plain[0]["latencies"])
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs, "commit": _commit(), **plain[0]["versions"],
        "nproc": os.cpu_count(), "src_lines": _src_lines(),
        "rounds": len(plain), "traced_rounds": len(traced),
        "items_per_round": n, "tail_percentile": tail_percentile(n),
        "setup_samples": SETUP_SAMPLES,
        "failed_ratio": failed / attempted,
        "uncalibrated": {**latency_metrics(item_latencies(plain, "raw")),
                         "setup_s": statistics.median(setups["raw"])},
    }}))
    print(json.dumps({"correct": failed == 0 and repeat_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (WorkerError, OSError, subprocess.TimeoutExpired,
            ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
