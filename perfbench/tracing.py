"""Traced passes: spans and counters around the layers of mmideals.

The tracer lives entirely in the benchmark.  `Tracer.install()` replaces
functions and methods of the imported `mmideals` modules with wrappers and
rebinds every alias a `from .x import y` left in another module (for
example `regions.mmi_at`, `jumping.antinef_closure` or
`cli.minimal_jumping_divisor`); `uninstall()` puts every original back.

Coarse calls get spans (name, start, end, parent span).  Hot primitives
(`Divisor.le`, `unload_once`, `DualGraph.__eq__`/`__hash__`,
`RegionEngine.mmi`) get counters only.  A hook whose target no longer
exists is reported in `absent` instead of failing.  Spans stay in memory
until the pass ends; `summary()` turns them into per-name inclusive and
self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import statistics
import sys
import time

PACKAGE = "mmideals"

# (module, class or None, attribute): the span is named "<module>.<attr>"
# without the package prefix, e.g. "regions.RegionEngine._facets".
SPANS = (
    ("cli", None, "main"),
    ("io", None, "load_input"),
    ("io", None, "enumeration_json"),
    ("io", None, "dump_json"),
    ("graph", None, "validate_graph"),
    ("graph", None, "relative_canonical"),
    ("divisors", None, "antinef_closure"),
    ("regions", None, "next_jumping_number"),
    ("regions", "RegionEngine", "region_of"),
    ("regions", "RegionEngine", "_facets"),
    ("regions", "RegionEngine", "_prioritize"),
    ("regions", "RegionEngine", "enumerate_constancy_regions"),
    ("jumping", None, "minimal_jumping_divisor"),
    ("jumping", None, "verify_jump_identity"),
    ("jumping", None, "verify_numeric_conditions"),
    ("jumping", None, "verify_contribution_dichotomy"),
    ("svg", None, "render_walls"),
)

COUNTERS = (
    ("divisors", "Divisor", "le"),
    ("divisors", None, "unload_once"),
    ("graph", "DualGraph", "__eq__"),
    ("graph", "DualGraph", "__hash__"),
    ("regions", "RegionEngine", "mmi"),
)

ENUMERATE = "regions.RegionEngine.enumerate_constancy_regions"
PRIORITIZE = "regions.RegionEngine._prioritize"
CLOSURE = "divisors.antinef_closure"
VERIFIERS = (
    "jumping.verify_jump_identity",
    "jumping.verify_numeric_conditions",
    "jumping.verify_contribution_dichotomy",
)
OUTPUTS = ("io.dump_json", "svg.render_walls")
# Counts kept beside one per COUNTERS hook: closures (all, and under a
# verifier), failed verification reports, `le` calls in the walk outside
# queue priority (the predecessor scan), and `mmi` calls that computed no
# closure (cache hits).
EXTRA_COUNTS = ("closures", "verify_closures", "verify_failed", "predecessor_le", "mmi_hits")


def _name(module, cls, attr):
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


class Tracer:
    """One traced pass: install, run the calls, uninstall, read summary()."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts = {key: 0 for key in EXTRA_COUNTS + tuple(_name(*hook) for hook in COUNTERS)}
        self.out_bytes: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth = {"verify": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, cls, attr in SPANS:
            self._hook(modules, module, cls, attr, self._span_wrapper)
        for module, cls, attr in COUNTERS:
            self._hook(modules, module, cls, attr, self._counter_wrapper)

    def _hook(self, modules, module, cls, attr, make):
        name = _name(module, cls, attr)
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        if owner is not None and cls is not None:
            owner = getattr(owner, cls, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(name, original)
        if cls is not None:
            self._patch(owner, attr, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter
        is_closure = name == CLOSURE
        is_verifier = name in VERIFIERS
        is_output = name in OUTPUTS
        depth.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if is_closure:
                counts["closures"] += 1
                if depth["verify"]:
                    counts["verify_closures"] += 1
            if is_verifier:
                depth["verify"] += 1
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(index)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                stack.pop()
                spans[index][3] = clock()
                if is_verifier:
                    depth["verify"] -= 1
            if is_output:
                self.out_bytes[name] = self.out_bytes.get(name, 0) + len(result.encode())
            elif is_verifier and not result.passed:
                counts["verify_failed"] += 1
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts, depth = self.counts, self._depth

        if name == "divisors.Divisor.le":

            def wrapper(self_, other):
                counts[name] += 1
                if depth.get(ENUMERATE) and not depth.get(PRIORITIZE):
                    counts["predecessor_le"] += 1
                return fn(self_, other)

        elif name == "regions.RegionEngine.mmi":

            def wrapper(self_, lam):
                # A call that computed no closure was answered from the cache.
                counts[name] += 1
                before = counts["closures"]
                result = fn(self_, lam)
                if counts["closures"] == before:
                    counts["mmi_hits"] += 1
                return result

        else:

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name span count, inclusive and self seconds, plus counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, list] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "out_bytes": dict(self.out_bytes),
            "absent": list(self.absent),
        }


def layer_metrics(summaries: list[dict], overhead_s: float, calib_ms: float) -> dict:
    """Per-layer metrics of a traced run: times are medians over the traced
    passes, counts come from the first one (they repeat exactly)."""

    def median_of(get):
        return statistics.median(get(s) for s in summaries)

    def incl(*names):
        return median_of(lambda s: sum(s["spans"].get(n, (0, 0.0, 0.0))[1] for n in names))

    def self_time(name):
        return median_of(lambda s: s["spans"].get(name, (0, 0.0, 0.0))[2])

    first = summaries[0]
    counts = first["counts"]
    closures = counts["closures"]
    sweeps = counts["divisors.unload_once"]
    mmi_calls = counts["regions.RegionEngine.mmi"]
    return {
        "graph.validate_s": (incl("graph.validate_graph"), "s"),
        "graph.canonical_s": (incl("graph.relative_canonical"), "s"),
        "graph.eq_calls": (counts["graph.DualGraph.__eq__"] + counts["graph.DualGraph.__hash__"], "count"),
        "divisors.closure_calls": (closures, "count"),
        "divisors.closure_s": (incl(CLOSURE), "s"),
        "divisors.sweeps": (sweeps, "count"),
        "divisors.sweeps_per_closure": (sweeps / closures if closures else 0.0, "ratio"),
        "divisors.le_calls": (counts["divisors.Divisor.le"], "count"),
        "regions.mmi_calls": (mmi_calls, "count"),
        "regions.mmi_cache_hit_ratio": (counts["mmi_hits"] / mmi_calls if mmi_calls else 0.0, "ratio"),
        "regions.region_of_s": (incl("regions.RegionEngine.region_of"), "s"),
        "regions.facets_s": (incl("regions.RegionEngine._facets"), "s"),
        "regions.prioritize_s": (incl(PRIORITIZE), "s"),
        "regions.predecessor_le_calls": (counts["predecessor_le"], "count"),
        "regions.enumerate_self_s": (self_time(ENUMERATE), "s"),
        "regions.next_jump_s": (incl("regions.next_jumping_number"), "s"),
        "jumping.mjd_s": (incl("jumping.minimal_jumping_divisor"), "s"),
        "jumping.verify_s": (incl(*VERIFIERS), "s"),
        "jumping.verify_closures": (counts["verify_closures"], "count"),
        "jumping.verify_failed": (counts["verify_failed"], "count"),
        "io.load_s": (self_time("io.load_input"), "s"),
        "io.serialize_s": (incl("io.enumeration_json", "io.dump_json"), "s"),
        "io.out_bytes": (first["out_bytes"].get("io.dump_json", 0), "bytes"),
        "svg.render_s": (incl("svg.render_walls"), "s"),
        "svg.out_bytes": (first["out_bytes"].get("svg.render_walls", 0), "bytes"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.absent_hooks": (len(first["absent"]), "count"),
        "host.calib_ms": (calib_ms, "ms"),
    }
