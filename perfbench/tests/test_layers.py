import json
import types
from pathlib import Path

import pytest

from perfbench import harness, layers
from repro.obs.tracing import Span

MS = 1_000_000


def span(id, parent, name, dur_ms):
    return Span(id=id, parent=parent, name=name, start_ns=0,
                dur_ns=int(dur_ms * MS), proc="bench", thread=0)


def test_summarize_folds_self_time_and_unattributed_share():
    spans = [
        span("r1", None, layers.ROOT, 100),
        span("a1", "r1", "api.engine", 60),
        span("k1", "a1", "core.knapsack", 20),
        span("k2", "a1", "core.knapsack", 15),
        span("c1", "r1", "core.combine", 10),
        span("r2", None, layers.ROOT, 50),
        span("c2", "r2", "core.combine", 45),
    ]
    summary = layers.summarize(spans)
    phases = summary["phases"]
    assert summary["wall_ms"] == pytest.approx(150)
    assert phases["api.engine"]["self_ms"] == pytest.approx(25)
    assert phases["core.knapsack"] == {
        "calls": 2, "total_ms": pytest.approx(35), "self_ms": pytest.approx(35)
    }
    # Root self time: (100 - 60 - 10) + (50 - 45) of 150 ms.
    assert summary["unattributed_share"] == pytest.approx(35 / 150)


def test_summarize_without_roots_has_no_unattributed_share():
    summary = layers.summarize([span("x", None, "core.combine", 5)])
    assert summary["unattributed_share"] == 0.0


def test_layer_values_cover_every_metric_and_normalise():
    spans = [
        span("r", None, layers.ROOT, 40),
        span("a", "r", "api.engine", 30),
        span("k", "a", "core.knapsack", 10),
    ]
    values = layers.layer_values(
        layers.summarize(spans), 2, {"core.dp_tables": 4}
    )
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    # Times are shares of the 40 ms root wall; calls are per pass.
    assert values["core.knapsack.share"] == pytest.approx(0.25)
    assert values["core.knapsack.calls"] == 0.5
    assert values["api.engine.self_share"] == pytest.approx(0.5)
    assert values["trace.unattributed_share"] == pytest.approx(0.25)
    assert values["core.dp_tables"] == 4
    assert values["qos.pricing.share"] == 0.0
    with pytest.raises(KeyError):
        layers.layer_values(layers.summarize(spans), 1, {"nope": 1})


def test_wrap_times_calls_and_restores_own_and_inherited_attributes():
    class Base:
        def lookup(self, key):
            return None if key < 0 else key

    class Child(Base):
        pass

    module = types.SimpleNamespace(build=lambda n: n * 2)
    timer = layers.LayerTimer()
    timer.wrap(Child, "lookup", "demo.lookup", hit=lambda r: r is not None)
    timer.wrap(module, "build", "demo.build")
    assert Child().lookup(3) == 3
    assert Child().lookup(-1) is None
    assert module.build(4) == 8
    assert timer.hits == {"demo.lookup": 1}
    names = sorted(s.name for s in timer.spans())
    assert names == ["demo.build", "demo.lookup", "demo.lookup"]
    timer.__exit__(None, None, None)
    assert "lookup" not in vars(Child)
    assert Child.lookup is Base.lookup
    assert module.build(4) == 8 and len(timer.spans()) == 3


def test_benchmark_json_lists_the_harness_metrics():
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(harness.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)
