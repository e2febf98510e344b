"""Harness smoke test: every workload at a tiny size, both modes.

    python3 -m pytest bench/test_smoke.py -q

Not part of the tier-1 suite (pytest's testpaths is tests/).
"""

import json
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT
from run import WORKLOADS
from tracing import EXACT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    return proc


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", seed, "--seconds", 0,
                 "--trace", trace, "--items", 2)
    assert proc.returncode == 0, proc.stderr
    record, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record)["record"], json.loads(last)


def check_metrics(out, declared):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, out = result(workload, 3, 0)
    check_metrics(out, SPEC["end_to_end"])
    assert record["seed"] == 3 and record["src_lines"] > 0
    for key in ("commit", "python", "numpy", "nproc", "tail_percentile"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat(workload):
    _, first = result(workload, 5, 1)
    _, second = result(workload, 5, 1)
    check_metrics(first, SPEC["per_layer"])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_seed_is_an_argument():
    assert bench("--workload", "wide", "--seconds", 0,
                 "--trace", 0).returncode != 0
    inputs = [result("wide", seed, 0)[0]["inputs"] for seed in (1, 1, 2)]
    assert inputs[0] == inputs[1] != inputs[2]
