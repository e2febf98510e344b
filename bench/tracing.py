"""Spans around the public functions of each library layer.

Tracer.install() replaces each traced function on its module (and on every
package module that imported it by name, so calls such as cli's by-name
derive are seen too) with a wrapper that records one span per call: name,
detail, start, end, parent span and item id.  Spans stay in memory; the
benchmark reads the per-layer numbers from them when the round ends and
may write them out as JSON lines.
"""

import json
import sys
import time
from collections import Counter, defaultdict

# Traced attributes per module; "Class.method" names a method.
TRACED = {
    "arith": ("factorize", "is_prime", "prime_divisors",
              "primitive_prime_divisor"),
    "params": ("derive", "target_orders"),
    "witness": ("construct", "compute_AB", "balance_two_parts", "solve_ab",
                "fixed_point_exponent", "classify_profile"),
    "verifier": ("verify", "in_spectrum"),
    "spectrum": ("enumerate_orbits", "omega", "format_dump", "parse_dump"),
    "ffield": ("build_field", "element_of_order", "realize", "Field.mul",
               "Field.pow", "Matrix4.mul", "sample_orders"),
    "cli": ("certificate_to_document", "canonical_json",
            "certificate_from_document"),
}

CASES = ("A_R4", "B_R3", "C_QcongMinusEps", "D_QcongEps")

# Span groups reported as <group>.calls and <group>.self_s.  verify is
# split by whether a spectrum was supplied; construct is also split by case.
TIMED_GROUPS = (
    [f"arith.{f}" for f in TRACED["arith"]]
    + ["params.derive", "params.target_orders", "witness.construct"]
    + [f"witness.construct.{c}" for c in CASES]
    + [f"witness.{f}" for f in TRACED["witness"][1:]]
    + ["verifier.verify.plain", "verifier.verify.psl", "verifier.in_spectrum"]
    + [f"spectrum.{f}" for f in TRACED["spectrum"]]
    + ["ffield.build_field", "ffield.element_of_order", "ffield.realize",
       "ffield.Field.mul", "ffield.sample_orders"]
    + [f"cli.{f}" for f in TRACED["cli"]]
)
CALL_ONLY_GROUPS = ("ffield.Field.pow", "ffield.Matrix4.mul")
COUNTERS = ("witness.case_d.adjustments", "verifier.verify.rejects",
            "spectrum.orbits.count", "spectrum.orders.count",
            "ffield.sample_orders.matmuls")
HIT_RATIO = "params.target_orders.hit_ratio"
# Raw cache lookups behind HIT_RATIO; summed over a round's workers.
CACHE_KEYS = ("params.target_orders.hits", "params.target_orders.lookups")

# Metrics that must repeat exactly across traced rounds of one seed.
EXACT = ([f"{g}.calls" for g in TIMED_GROUPS + list(CALL_ONLY_GROUPS)]
         + list(COUNTERS) + [HIT_RATIO])


def _detail(name, kwargs, result):
    if name == "witness.construct":
        return result.case
    if name == "verifier.verify":
        return "plain" if kwargs.get("psl_orders") is None else "psl"
    return None


def _count(counts, name, result):
    if name == "witness.construct" and result.case_d is not None:
        counts["witness.case_d.adjustments"] += len(result.case_d.adjustments)
    elif name == "verifier.verify" and not result.ok:
        counts["verifier.verify.rejects"] += 1
    elif name == "spectrum.enumerate_orbits":
        counts["spectrum.orbits.count"] += len(result)
    elif name == "spectrum.omega":
        counts["spectrum.orders.count"] += len(result)
    elif name == "ffield.sample_orders":
        counts["ffield.sample_orders.matmuls"] += sum(result[0])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, detail, start, end, parent, item]
        self.counts = Counter()
        self.item = None
        self.enabled = False
        self.installed = False
        self._stack = []
        self._target_orders = None

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, None, clock(), 0.0, stack[-1] if stack else -1,
                    self.item]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[1] = _detail(name, kwargs, result)
            _count(counts, name, result)
            return result

        return traced

    def install(self) -> None:
        self.installed = True
        package = [m for n, m in sys.modules.items()
                   if n == "sl4witness" or n.startswith("sl4witness.")]
        for mod_name, attrs in TRACED.items():
            mod = sys.modules[f"sl4witness.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
                if name == "params.target_orders":
                    self._target_orders = original

    def layer_metrics(self) -> dict:
        """Call counts, self times, counters and cache lookups so far; every
        value is a sum, so the numbers of several workers add up."""
        child = defaultdict(float)
        for _name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for idx, (name, detail, start, end, _p, _i) in enumerate(self.spans):
            own = end - start - child[idx]
            groups = [name]
            if name == "verifier.verify":
                groups = [f"{name}.{detail}"]
            elif detail is not None:
                groups.append(f"{name}.{detail}")
            for group in groups:
                calls[group] += 1
                self_s[group] += own
        out = {}
        for group in TIMED_GROUPS:
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        for group in CALL_ONLY_GROUPS:
            out[f"{group}.calls"] = calls[group]
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        info = self._target_orders.cache_info()
        out[CACHE_KEYS[0]] = info.hits
        out[CACHE_KEYS[1]] = info.hits + info.misses
        return out

    def write_spans(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, detail, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "detail": detail,
                                     "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def per_layer_units() -> dict:
    """Unit of every per-layer metric, trace.overhead_ratio included."""
    units = {}
    for group in TIMED_GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    for group in CALL_ONLY_GROUPS:
        units[f"{group}.calls"] = "count"
    for counter in COUNTERS:
        units[counter] = "count"
    units[HIT_RATIO] = "1"
    units["trace.overhead_ratio"] = "1"
    return units
