"""Span tracer that wraps the package's public functions from outside.

Each public module-level function of the measured modules is replaced, in
every module namespace that binds it, by a wrapper that records a span:
name, start, end, parent span, op id and the exception type that ended it,
if any.  Rebinding the names the calling modules hold (``realization.pack``,
``equivalence.digraph_isomorphism``, ``geometry.symmetric_pair_radius``)
makes calls between modules and within one module go through the wrapper,
because Python looks module globals up at call time.  Nothing in the
package changes; ``uninstall`` puts the original functions back.

Spans stay in memory until the run writes them out.
"""

import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "embedding", "coloring", "packing", "realization", "isomorphism",
    "equivalence", "generators", "geometry", "jsonio", "svgrender",
)

# Leaf helpers called in inner loops (80 times per bisection in
# ``symmetric_pair_radius``, once per point in ``verify_realization``).  A
# span per call would cost more than the call and hold millions of spans;
# their time stays in the self time of the caller.
UNWRAPPED = {
    "realization.angle_on", "realization.point_kind", "realization.point_angle",
    "geometry.inner_mate_radius", "geometry.outer_mate_radius",
    "geometry.outer_phi_max",
}

# Counters read off return values at the span boundary.
COUNTERS = {
    "packing.pack": ("packing.pack.sweeps", lambda p: p.iterations),
    "realization.verify_realization": (
        "realization.verify_realization.violations", lambda rep: len(rep.violations)),
    "geometry.gadget_arc_infeasibility": (
        "geometry.gadget_arc_infeasibility.tested", lambda rep: rep.tested),
    "jsonio.serialize_realization": ("jsonio.bytes", lambda s: len(s.encode())),
    "svgrender.render_svg": ("svgrender.bytes", lambda s: len(s.encode())),
}


class Tracer:
    def __init__(self, cs, timeout_type):
        self.cs = cs
        self.timeout_name = timeout_type.__name__
        self.spans = []  # [name, start, end, parent, op, error]
        self.counters = defaultdict(int)
        self.op = None
        self.names = set()
        self._stack = []
        self._patched = []

    def install(self):
        targets = {}
        for mod_name in MODULES:
            mod = getattr(self.cs, mod_name)
            for name, fn in vars(mod).items():
                qual = f"{mod_name}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in UNWRAPPED):
                    targets[fn] = self._wrap(qual, fn)
                    self.names.add(qual)
        for mod in [self.cs] + [getattr(self.cs, m) for m in MODULES]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, targets[value])

    def uninstall(self):
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _wrap(self, qual, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(qual)
        counters = self.counters

        def traced(*args, **kwargs):
            span = [qual, clock(), None, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                counters[counter[0]] += counter[1](out)
            return out

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Per-layer table and spans recorded since the last call; run it
        between ops, when no span is open."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        table = dict.fromkeys((c for c, _ in COUNTERS.values()), 0)
        table.update(counters)
        child_s = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        stats = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                                     "failed": 0, "timeouts": 0})
        for i, (name, t0, t1, _, _, err) in enumerate(spans):
            st = stats[name]
            st["s"] += t1 - t0
            st["self_s"] += t1 - t0 - child_s[i]
            st["calls"] += 1
            st["failed"] += err is not None
            st["timeouts"] += err == self.timeout_name
        return table, stats, spans

    def lookup(self, layers, metric):
        """Value of a per-layer metric in ``take()``'s result: a counter, or
        ``<module>.<function>.<stat>`` from the spans (0 when it never ran)."""
        table, stats, _ = layers
        if metric in table:
            return table[metric]
        span, _, stat = metric.rpartition(".")
        if span not in self.names or stat not in ("s", "self_s", "calls", "failed", "timeouts"):
            raise KeyError(f"unknown per-layer metric {metric!r}")
        return stats[span][stat]


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                   "spans": spans}, fh, separators=(",", ":"))
