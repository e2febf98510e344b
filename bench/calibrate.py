"""Reference work timed next to the items, to take out the machine's speed.

On a shared host other tenants slow the processor by a third or more, in
spells of seconds to minutes, and a spell slows process time as much as
wall time.  Neither the least nor the median latency over a run's rounds
removes a spell that covers the whole run.  So the worker times a fixed
piece of work every REF_EVERY_S between items, and each item's latency is
scaled by REF_NOMINAL_S over the median of the reference timings around
it: an item is reported in milliseconds of a machine on which the
reference takes REF_NOMINAL_S.  Contention slows numpy's array loops and
the interpreter by different shares, so an item that is mostly numpy is
scaled by numpy reference work (numpy_reference_work) and any other by
pure-Python reference work (reference_work).  A change to the
library changes the item times and not the reference, so it moves the
scaled latency by the same share as the raw one.
"""

import statistics
import subprocess
import sys
import time

import numpy

# Each reference takes about this long on an unloaded 2-vCPU x86-64 host.
REF_NOMINAL_S = 0.001
REF_ITERS = 1500
REF_MATMULS = 30
# Between items, a reference timing at least this often ...
REF_EVERY_S = 0.025
# ... and around an item, the timings from this far before its start to
# this far after its end, or the REF_NEAREST nearest ones if fewer.
REF_WINDOW_S = 0.25
REF_NEAREST = 7
# A bare interpreter starts in about this long on the same host.  Start-up
# is mostly loading code and mapping memory, which contention slows by
# other shares than it slows the interpreter loop.
START_NOMINAL_S = 0.05
# Reference timings at the start and end of a round, request or set-up.
REF_BURST = 5


def _step(a, b, table):
    return (a * 31 + b) % 65521, table.get(a & 255, b)


def reference_work():
    """Small-integer arithmetic, calls, tuples and a dict, as the library
    does them; a fixed amount of work."""
    table = {i: i * i for i in range(256)}
    a = acc = 1
    for b in range(REF_ITERS):
        a, c = _step(a, b, table)
        acc ^= pow(a, 5, 1000003)
        table[c & 255] = acc
    return acc


_MATS = (numpy.arange(200 * 16, dtype=numpy.int64) * 7 % 5).reshape(
    200, 4, 4)


def numpy_reference_work():
    """Batched 4x4 matrix powers mod 5, as sample_orders computes them."""
    acc = _MATS.copy()
    for _ in range(REF_MATMULS):
        acc = numpy.matmul(acc, _MATS) % 5
    return acc


REFERENCES = {"python": reference_work, "numpy": numpy_reference_work}


class Calibrator:
    """Reference timings over one process's life, and the scale factor of
    any stretch of time from them."""

    def __init__(self, clock, kinds=("python",)):
        self.clock = clock
        self.samples = {kind: [] for kind in kinds}  # (midpoint, seconds)
        self.last = float("-inf")

    def sample(self, count=1):
        for _ in range(count):
            for kind, samples in self.samples.items():
                start = self.clock()
                REFERENCES[kind]()
                end = self.clock()
                samples.append(((start + end) / 2, end - start))
        self.last = self.clock()

    def tick(self):
        """Time the references if REF_EVERY_S has passed since the last."""
        if self.clock() - self.last >= REF_EVERY_S:
            self.sample()

    def reference_s(self, start, end, kind):
        """Median reference time around the stretch [start, end]."""
        samples = self.samples[kind]
        near = [s for t, s in samples
                if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        if len(near) < REF_NEAREST:
            mid = (start + end) / 2
            near = [s for _, s in sorted(samples,
                                         key=lambda ts: abs(ts[0] - mid))
                    [:REF_NEAREST]]
        return statistics.median(near)

    def scaled(self, spans):
        """Latencies of the (start, end, kind) spans at REF_NOMINAL_S
        speed."""
        return [(end - start) * REF_NOMINAL_S
                / self.reference_s(start, end, kind)
                for start, end, kind in spans]


def interpreter_start_s(env):
    """Wall time of starting and ending a bare interpreter."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.monotonic() - start
