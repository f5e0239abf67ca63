"""The benchmark tooling outside the package: the ladder timer
``scripts/bench.py`` and the names perfbench's span tracer reads."""

import importlib
import importlib.util
import inspect
import json
import pathlib

import pytest

from circlesystems.generators import GADGET, augment_octahedron

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(path, name):
    """The module at ``ROOT / path``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("scripts/bench.py", "bench")


def test_listing_the_bench_inputs_builds_no_graph(bench, monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built while listing the inputs")

    for name in ("medial", "prism", "tetrahedron", "icosahedron",
                 "augment_octahedron"):
        monkeypatch.setattr(bench, name, refuse)
    names = [name for name, _ in bench._inputs(3840)]
    ladder = [f"medial-n{60 << k}" for k in range(7)]
    assert len(names) == len(set(names)) == 71
    assert names[:7] == ladder
    assert names[-9:] == (["iso-gadget-bigadget"]
                          + [f"iso-{name}" for name in ladder] + ["import"])
    assert len(list(bench._inputs(960))) == 67
    assert len(list(bench._inputs(60))) == 58


def test_the_gadget_iso_row_needs_the_gadget_octahedron_size(bench):
    # _inputs keeps the row from --max-n 822 on without building the graph
    n = augment_octahedron(GADGET).n
    assert n == 822
    for max_n, present in ((n - 1, False), (n, True)):
        names = [name for name, _ in bench._inputs(max_n)]
        assert ("iso-gadget-bigadget" in names) == present


def test_every_per_layer_span_names_a_traced_function():
    # a per-layer metric <module>.<function>.<stat> reads the spans of a
    # function the tracer wraps: public, module-level, not left unwrapped
    tracer = _load("perfbench/tracer.py", "tracer")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counters = {name for name, _ in tracer.COUNTERS.values()}
    spans = [m["name"] for m in metrics if m["name"] not in counters
             and m["name"] not in ("trace_overhead", "traced_pass_s")]
    assert len(spans) == 32
    for span in spans:
        module_name, function, _ = span.split(".")
        assert module_name in tracer.MODULES, span
        module = importlib.import_module(f"circlesystems.{module_name}")
        fn = getattr(module, function, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
        assert not function.startswith("_"), span
        assert f"{module_name}.{function}" not in tracer.UNWRAPPED, span
