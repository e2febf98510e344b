"""One round of one workload in a fresh interpreter.

run.py starts this script once per round, writes the job as JSON on its
stdin and reads one JSON result line from its stdout.  The library import
comes first, so the orchestrator can time interpreter start-up plus
`import sl4witness`.  For spectrum this process only imports; each request
runs in a process forked from it.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import sl4witness  # noqa: E402

IMPORT_DONE = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402

from calibrate import REF_BURST, Calibrator  # noqa: E402
from common import digest16, realized_text, sha256  # noqa: E402
from tracing import Tracer  # noqa: E402

from sl4witness import (cli, ffield, params, spectrum,  # noqa: E402
                        verifier, witness)

SPECTRUM_MIN_S = 0.5
SPECTRUM_MAX_REPEATS = 4
# The reference work that scales each crosscheck item (calibrate.py).
KIND = {"realize": "python", "sample": "numpy"}


def _failure(exc: BaseException) -> str:
    return f"error {type(exc).__name__}: {exc}"


def _rejected(report) -> str:
    return "rejected " + ";".join(label for label, _ in report.failures)


def run_grid(job, tracer, cal):
    """derive -> construct -> verify over whole fields, as `sweep` does;
    derive is charged to the first certificate of its field."""
    items, clock = job["items"], cal.clock
    spans, outcomes = [], []
    field = pr = None
    for idx, (eps, p, m, profile) in enumerate(items):
        cal.tick()
        tracer.item = idx
        start = clock()
        try:
            if (eps, p, m) != field:
                pr = params.derive(eps, p, m)
                field = (eps, p, m)
            cert = witness.construct(pr, tuple(profile))
            report = verifier.verify(cert)
            outcome = cert if report.ok else _rejected(report)
        except Exception as exc:  # noqa: BLE001 - any raise fails the item
            outcome = _failure(exc)
        spans.append((start, clock(), "python"))
        outcomes.append(outcome)
    tracer.enabled = False
    return spans, [
        o if isinstance(o, str)
        else digest16(cli.canonical_json(cli.certificate_to_document(o)))
        for o in outcomes]


def run_wide(job, tracer, cal):
    """The `construct --out` then `verify FILE` path, one request each."""
    items, clock = job["items"], cal.clock
    spans, got = [], []
    for idx, (eps, p, m, profile) in enumerate(items):
        cal.tick()
        tracer.item = idx
        start = clock()
        try:
            cert = witness.construct(params.derive(eps, p, m), tuple(profile))
            text = cli.canonical_json(cli.certificate_to_document(cert))
            back = cli.certificate_from_document(json.loads(text))
            report = verifier.verify(back)
            outcome = text if report.ok else _rejected(report)
        except Exception as exc:  # noqa: BLE001
            outcome = _failure(exc)
        spans.append((start, clock(), "python"))
        got.append(outcome if outcome.startswith(("error", "rejected"))
                   else digest16(outcome))
    return spans, got


def _forked(fn, *args):
    """fn(*args) in a forked child, which returns JSON through a pipe.

    The parent has only imported the library, so the child starts as a new
    CLI process does after its import, with every cache cold.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(fn(*args)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"request process failed with status {status}")
    return json.loads(text)


def _spectrum_request(item, tracer, clock, spans_path):
    """`verify --spectrum compute FILE`, then both dumps written and parsed."""
    cert_path, dump_prefix = item
    cal = Calibrator(clock)
    cal.sample(REF_BURST)
    tracer.enabled = tracer.installed
    start = clock()
    try:
        with open(cert_path, encoding="utf-8") as fh:
            cert = cli.certificate_from_document(json.load(fh))
        psl = spectrum.omega(cert.params, spectrum.GROUP_PROJECTIVE)
        report = verifier.verify(cert, psl_orders=psl)
        dumps = []
        for group in (spectrum.GROUP_FULL, spectrum.GROUP_PROJECTIVE):
            path = f"{dump_prefix}-{group}.txt"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spectrum.format_dump(cert.params, group))
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            dumps.append((group, text, spectrum.parse_dump(text)))
    except Exception as exc:  # noqa: BLE001
        end = clock()
        outcome = _failure(exc)
    else:
        end = clock()
        parts = ["ok" if report.ok else _rejected(report)]
        for group, text, (back, back_group, orders) in dumps:
            listed = tuple(int(ln) for ln in text.splitlines()[1:])
            same = (back == cert.params and back_group == group
                    and orders == listed)
            parts.append(sha256(text) if same else "roundtrip-mismatch")
        outcome = " ".join(parts)
    tracer.enabled = False
    cal.sample(REF_BURST)
    layers = tracer.layer_metrics() if tracer.installed else None
    if spans_path:
        tracer.write_spans(spans_path)
    return {"latency": cal.scaled([(start, end, "python")])[0],
            "raw": end - start,
            "got": outcome, "layers": layers}


def run_spectrum(items, tracer, clock, spans_path):
    """Every request in its own process, repeated back to back until it has
    been timed SPECTRUM_MIN_S in total or SPECTRUM_MAX_REPEATS times; the
    latency is the median of the repeats.  Requests of a few milliseconds
    would otherwise rest on one sample per round, while those of seconds
    need no more.  Layer numbers and spans come from the first repeat."""
    latencies, raw, got, layers = [], [], [], {}
    for idx, item in enumerate(items):
        tracer.item = idx
        samples = []
        while (len(samples) < SPECTRUM_MAX_REPEATS
               and sum(s["raw"] for s in samples) < SPECTRUM_MIN_S):
            samples.append(_forked(_spectrum_request, item, tracer, clock,
                                   None if samples else spans_path))
        latencies.append(statistics.median(s["latency"] for s in samples))
        raw.append(statistics.median(s["raw"] for s in samples))
        outcomes = {s["got"] for s in samples}
        got.append(outcomes.pop() if len(outcomes) == 1
                   else "repeats disagree")
        for name, value in (samples[0]["layers"] or {}).items():
            layers[name] = layers.get(name, 0) + value
    return latencies, raw, got, layers


def run_crosscheck(job, tracer, cal):
    """realize on certificates, and sampled orders against the tables."""
    items, tables, clock = job["items"], job["tables"], cal.clock
    enabled = tracer.enabled
    tracer.enabled = False
    certs = {idx: cli.certificate_from_document(item[1])
             for idx, item in enumerate(items) if item[0] == "realize"}
    tracer.enabled = enabled
    spans, got = [], []
    for idx, item in enumerate(items):
        # Each item starts with an empty collector, as in a fresh process,
        # so where the seed puts the batches does not decide which realize
        # pays for a full collection.
        gc.collect()
        cal.tick()
        tracer.item = idx
        start = clock()
        try:
            if item[0] == "realize":
                result = ffield.realize(certs[idx])
            else:
                result = ffield.sample_orders(*item[1:])
            spans.append((start, clock(), KIND[item[0]]))
        except Exception as exc:  # noqa: BLE001
            spans.append((start, clock(), KIND[item[0]]))
            got.append(_failure(exc))
            continue
        if item[0] == "realize":
            got.append(digest16(realized_text(result)))
        else:
            table = tables[str(item[1])]
            full, proj = result
            escapes = (sum(o not in table["SL"] for o in set(full))
                       + sum(o not in table["PSL"] for o in set(proj)))
            got.append(f"escapes={escapes}")
    return spans, got


RUNNERS = {"grid": run_grid, "wide": run_wide, "crosscheck": run_crosscheck}


def main() -> None:
    job = json.load(sys.stdin)
    tracer = Tracer()
    if job["trace"]:
        tracer.install()
    clock = time.perf_counter
    spans_path = job.get("spans_path")
    if job["workload"] == "spectrum":
        latencies, raw, got, layers = run_spectrum(job["items"], tracer,
                                                   clock, spans_path)
    else:
        cal = Calibrator(clock, ("python", "numpy")
                         if job["workload"] == "crosscheck" else ("python",))
        cal.sample(REF_BURST)
        tracer.enabled = tracer.installed
        spans, got = RUNNERS[job["workload"]](job, tracer, cal)
        tracer.enabled = False
        cal.sample(REF_BURST)
        latencies = cal.scaled(spans)
        raw = [end - start for start, end, _ in spans]
        layers = tracer.layer_metrics() if tracer.installed else None
        if layers is not None and spans_path:
            tracer.write_spans(spans_path)
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "import_done": IMPORT_DONE,
        "latencies": latencies,
        "raw": raw,
        "got": got,
        "rss_kb": rss_kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sl4witness": sl4witness.__version__,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
