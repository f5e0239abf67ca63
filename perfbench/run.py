#!/usr/bin/env python3
"""Benchmark for circlesystems: one workload, one seed, one process.

    python3 perfbench/run.py --workload medial_ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Whole passes over the workload's ops run
until ``--seconds`` is used up (at least three without tracing).  Before
each untraced pass the package is imported afresh and the inputs are built
again, three times; ``setup_s`` is the median of those set-ups.  A pass
time counts the package calls only; ``pass_rel`` measures it in units of
a fixed reference loop timed at the pass's start, end and about every
0.5 s in between (see ``Pass``), which cancels most of the drift in the
speed of a shared machine.
With ``--trace 1`` half the time goes to untraced passes and half to
traced ones, and the per-layer metrics are the medians over the traced
passes.  Every op's output is checked against its known answer; the
outputs of every pass must hash alike, or the run aborts.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list the failed ops.
``attempted`` counts the ops of one pass and ``failed`` the ops that failed
in any pass.
"""

import argparse
import collections
import hashlib
import importlib
import json
import math
import pathlib
import resource
import signal
import statistics
import sys
import time

import tracer
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3  # per untraced pass
START_REFERENCES = 3  # reference samples at the start of each pass
REFERENCE_EVERY_S = 0.5  # CPU seconds (untraced) or op seconds (traced)
MIN_UNTRACED_PASSES = 3
PACKAGE = "circlesystems"
MODULES = tracer.MODULES + ("errors",)


def reference_work():
    """Fixed pure-Python work (the angle-sum arithmetic of one small flower,
    plus dict updates) timed between ops as the machine-speed yardstick."""
    radii = [1.0 + (i % 7) * 0.125 for i in range(64)]
    seen = {}
    total = 0.0
    for _ in range(1500):
        prev = radii[-1]
        for i, r in enumerate(radii):
            s = math.sqrt((prev / (r + prev)) * (r / (r + prev)))
            total += math.asin(s if s < 1.0 else 1.0)
            seen[i & 15] = seen.get(i & 15, 0) + 1
            prev = r
    return total


class VerdictTimeout(Exception):
    """Raised from the interval timer when an op runs past its limit."""


def _alarm(signum, frame):
    raise VerdictTimeout()


class Pass:
    """One pass over a workload: op timing, reference samples, failures and
    the output digest.

    The reference loop is timed ``START_REFERENCES`` times when the pass
    starts, once when it ends, and about every ``REFERENCE_EVERY_S`` in
    between.  In an untraced pass a CPU-time interval timer takes these
    samples, so they fall inside long ops too, and their time is taken out
    of the op's.  In a traced pass they are taken between ops, so that no
    sample lands inside a span.  Verdict ops run without the timer."""

    def __init__(self, trace=None):
        self.trace = trace
        self.op_s = 0.0
        self.refs = []  # (op time at the sample, reference loop time)
        self.attempted = 0
        self.failures = []  # (op name, reason)
        self.wrong = 0
        self.digest = hashlib.sha256()
        self._op_t0 = None  # start of the running op
        self._paused = 0.0  # reference time inside the running op
        for _ in range(START_REFERENCES):
            self.sample_reference()

    def __enter__(self):
        if not self.trace:
            signal.signal(signal.SIGPROF, self.sample_reference)
            signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample_reference()

    def sample_reference(self, *_signal):
        t0 = time.perf_counter()
        reference_work()
        ref_s = time.perf_counter() - t0
        op_now = self.op_s
        if self._op_t0 is not None:
            op_now += t0 - self._op_t0 - self._paused
            self._paused += time.perf_counter() - t0
        self.refs.append((op_now, ref_s))

    @property
    def rel(self):
        """Pass time in reference units: the op time between two successive
        reference samples divided by their mean, summed over the pass."""
        return sum((b[0] - a[0]) / ((a[1] + b[1]) / 2)
                   for a, b in zip(self.refs, self.refs[1:]))

    def op(self, name, fn, *args, check=None, raises=None, limit_refs=None):
        """Run ``fn(*args)`` as one op and return its result, or None when the
        op raised, failed ``check`` or ran longer than ``limit_refs`` times
        the median reference time of this pass so far (at least the
        ``START_REFERENCES`` samples of its start), so that the same ops time
        out when the machine runs slower or faster."""
        self.attempted += 1
        if self.trace:
            self.trace.op = name
        if limit_refs:
            sampler = signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL,
                             limit_refs * statistics.median(r for _, r in self.refs))
        self._op_t0, self._paused = time.perf_counter(), 0.0
        try:
            out = fn(*args)
        except VerdictTimeout:
            return self._fail(name, f"timeout after {limit_refs} reference loops")
        except Exception as exc:
            if raises and isinstance(exc, raises):
                return exc
            return self._fail(name, f"{type(exc).__name__}: {exc}")
        finally:
            if limit_refs:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.op_s += time.perf_counter() - self._op_t0 - self._paused
            self._op_t0 = None
            if limit_refs and sampler[1]:
                signal.setitimer(signal.ITIMER_PROF, max(sampler[0], 1e-3), sampler[1])
            if self.trace:
                self.trace.op = None
                if self.op_s - self.refs[-1][0] >= REFERENCE_EVERY_S:
                    self.sample_reference()
        if raises:
            self.wrong += 1
            return self._fail(name, f"returned instead of raising {raises.__name__}")
        if check and not check(out):
            self.wrong += 1
            return self._fail(name, f"wrong output: {repr(out)[:120]}")
        return out

    def skip(self, names, reason):
        for name in names:
            self.attempted += 1
            self._fail(name, reason)

    def record(self, *values):
        self.digest.update(repr(values).encode())

    def _fail(self, name, reason):
        self.failures.append((name, reason))
        return None


def import_package():
    """Import the package afresh from ``src/`` (so that import time can be
    measured more than once in one process)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cs = importlib.import_module(PACKAGE)
    for mod in MODULES:
        importlib.import_module(f"{PACKAGE}.{mod}")
    if pathlib.Path(cs.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"error: {PACKAGE} imported from {cs.__file__}, not {SRC}")
    return cs


def run_passes(make_pass, budget, min_passes):
    """Run passes until one more would overrun ``budget`` seconds."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(make_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    setup, run_pass = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    # Set-up repeats run between the untraced passes, so that their median
    # samples the machine over the whole run, not over its first second.
    setup_s, input_digests, state = [], set(), {}

    def untraced_pass(_):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state["cs"] = import_package()
            state["inputs"], digest = setup(state["cs"], args.seed)
            setup_s.append(time.perf_counter() - t0)
            input_digests.add(digest)
        with Pass() as p:
            run_pass(state["cs"], state["inputs"], args.seed, p)
        return p

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(untraced_pass, budget, 1 if args.trace else MIN_UNTRACED_PASSES)
    if len(input_digests) != 1:
        print(f"error: inputs differ between set-ups: {sorted(input_digests)}", file=sys.stderr)
        return 3
    traced = []
    if args.trace:
        trace = tracer.Tracer(state["cs"], VerdictTimeout)

        def traced_pass(index):
            with Pass(trace) as p:
                run_pass(state["cs"], state["inputs"], args.seed, p)
            p.layers = trace.take()
            if index:
                p.layers[2].clear()  # only the first traced pass keeps its spans
            return p

        trace.install()
        try:
            traced = run_passes(traced_pass, budget, 1)
        finally:
            trace.uninstall()

    digests = {p.digest.hexdigest() for p in passes + traced}
    if len(digests) != 1:
        print(f"error: outputs differ between passes: {sorted(digests)}", file=sys.stderr)
        return 3

    # ``attempted`` is the number of ops in one pass, and ``failed`` the
    # number of those ops that failed in any pass of the run, so that
    # neither grows with the number of passes that fit in ``--seconds``.
    everything = passes + traced
    per_pass = {p.attempted for p in everything}
    if len(per_pass) != 1:
        print(f"error: passes attempted different op counts: {sorted(per_pass)}",
              file=sys.stderr)
        return 3
    attempted = per_pass.pop()
    failed = len({name for p in everything for name, _ in p.failures})
    pass_s = statistics.median(p.op_s for p in passes)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "pass_rel": statistics.median(p.rel for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = {}
    if traced:
        layers = {
            "trace_overhead": statistics.median(p.rel for p in traced) / e2e["pass_rel"],
            "traced_pass_s": statistics.median(p.op_s for p in traced),
        }
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                layers[m["name"]] = statistics.median(
                    trace.lookup(p.layers, m["name"]) for p in traced)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                           traced[0].layers[2])

    times = sorted(p.op_s for p in passes)
    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {input_digests.pop()}, "
          f"outputs sha256 {digests.pop()}")
    print(f"setup_s {e2e['setup_s']:.6f} s (median of {len(setup_s)})")
    print(f"pass_s {pass_s:.6f} s (median of {len(times)} untraced passes, "
          f"min {times[0]:.6f}, max {times[-1]:.6f})")
    print(f"pass_rel {e2e['pass_rel']:.3f} ratio (pass time / reference loop time, "
          f"median of {len(passes)}; reference median "
          f"{statistics.median(r for p in passes for _, r in p.refs):.6f} s)")
    print(f"fail_share {failed / attempted:.6f} ({failed} failed / {attempted} attempted; "
          f"ops of one pass, failed in any of {len(everything)} passes; per pass: "
          f"{sorted(collections.Counter(len(p.failures) for p in everything).items())})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.3f} MB")
    counts = collections.Counter(f for p in everything for f in p.failures)
    for (name, reason), count in counts.items():
        print(f"failed op: {name}: {reason} [{count} of {len(everything)} passes]")
    for m in spec["per_layer"] if traced else ():
        print(f"{m['name']} {layers[m['name']]:.6g} {m['unit']}")

    group, values = ("per_layer", layers) if args.trace else ("end_to_end", e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    wrong = sum(p.wrong for p in everything)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
