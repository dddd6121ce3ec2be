"""Differential: vectorized QoS batch engine vs the per-event reference.

The columnar window engine (:meth:`QoSSimulator.run_vectorized`) must
reproduce the retained per-event scalar engine *bit for bit* — every
per-window :class:`QoSSliceStats` (latency percentiles included), every
per-device :class:`SliceRecord`, every summary aggregate — across the
six Fig. 4 presets, fleet shapes, queue disciplines and batch sizes,
plus the stress states the presets never reach (overload with drain,
autoscaling, multi-class mixes).  Mirrors the DP and slice-runtime
differential suites.
"""

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig
from repro.qos import (
    INTERACTIVE_MIX,
    QoSSimulator,
    RequestBatch,
    sample_request_batch,
    sample_requests,
)
from repro.qos.queueing import Fifo, QueueDiscipline
from repro.reference import reference
from repro.workloads import ALL_CASES, bursty, scenario

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS)


@pytest.fixture(scope="module")
def hh_runtime():
    return Engine(use_disk_cache=False).runtime(ExperimentConfig(**TINY))


def run_both(runtime, workload, requests=None, **kwargs):
    """One run per engine, same configuration, freshly built policies."""

    def run():
        return QoSSimulator(runtime, **kwargs).run(
            workload, requests=requests
        )

    with reference(False):
        fast = run()
    with reference():
        slow = run()
    return fast, slow


def assert_identical(fast, slow):
    """Bit-for-bit equality, per-device records included."""
    assert fast.to_dict(include_records=True) == slow.to_dict(
        include_records=True
    )


class TestMatrix:
    """Six Fig. 4 presets x fleet shapes x disciplines x batching."""

    @pytest.mark.parametrize("case", ALL_CASES,
                             ids=lambda c: f"case{c.value}")
    @pytest.mark.parametrize("devices", (1, 3))
    @pytest.mark.parametrize("discipline", ("fifo", "priority", "edf"))
    @pytest.mark.parametrize("batch", (1, 3))
    def test_record_for_record(self, hh_runtime, case, devices,
                               discipline, batch):
        workload = scenario(case, slices=12)
        fast, slow = run_both(
            hh_runtime, workload,
            devices=devices, discipline=discipline, batch=batch,
        )
        assert_identical(fast, slow)


class TestStressStates:
    def test_overload_with_drain(self, hh_runtime):
        """Deep backlog + drain windows: completions past the horizon."""
        workload = bursty(calm_rate=6.0, burst_rate=18.0).materialize(
            slices=20, peak=24, seed=7
        )
        fast, slow = run_both(
            hh_runtime, workload, devices=1, discipline="edf", batch=2
        )
        assert fast.unfinished == slow.unfinished
        assert len(fast.slices) > len(workload)
        assert_identical(fast, slow)

    @pytest.mark.parametrize("autoscaler", ("queue_depth", "threshold"))
    def test_autoscaling_fleet(self, hh_runtime, autoscaler):
        """Grow-and-shrink fleets re-stage queues identically."""
        workload = bursty(calm_rate=1.0, burst_rate=16.0).materialize(
            slices=24, peak=20, seed=11
        )
        fast, slow = run_both(
            hh_runtime, workload,
            devices=1, max_devices=5, autoscaler=autoscaler,
            discipline="edf", batch=2,
        )
        assert fast.mean_fleet_size > 1.0
        assert_identical(fast, slow)

    def test_multi_class_mix(self, hh_runtime):
        """Per-class priorities/SLO factors survive the columnar path."""
        workload = scenario(ALL_CASES[2], slices=16)
        fast, slow = run_both(
            hh_runtime, workload,
            devices=2, discipline="priority", batch=2,
            classes=INTERACTIVE_MIX,
        )
        assert_identical(fast, slow)

    def test_on_window_streams_identical_stats(self, hh_runtime):
        workload = scenario(ALL_CASES[0], slices=10)
        seen = {"fast": [], "slow": []}

        def run(key):
            sim = QoSSimulator(
                hh_runtime, devices=2, discipline="edf", batch=2,
                on_window=seen[key].append,
            )
            return sim.run(workload)

        with reference(False):
            fast = run("fast")
        with reference():
            run("slow")
        assert seen["fast"] == seen["slow"]
        assert tuple(seen["fast"]) == fast.slices


class TestRequestPlumbing:
    def test_explicit_request_tuples_match_batch(self, hh_runtime):
        """Tuple-of-Request input converts and serves identically."""
        workload = scenario(ALL_CASES[1], slices=10)
        t_slice = hh_runtime.t_slice_ns
        tuples = sample_requests(workload, t_slice, seed=5)
        batch = sample_request_batch(workload, t_slice, seed=5)
        fast, _ = run_both(
            hh_runtime, workload, requests=tuples,
            devices=1, discipline="fifo", batch=1,
        )
        via_batch, _ = run_both(
            hh_runtime, workload, requests=batch,
            devices=1, discipline="fifo", batch=1,
        )
        assert_identical(fast, via_batch)

    def test_sampler_parity_and_round_trip(self, hh_runtime):
        workload = scenario(ALL_CASES[3], slices=14)
        t_slice = hh_runtime.t_slice_ns
        tuples = sample_requests(workload, t_slice, seed=2025)
        batch = sample_request_batch(workload, t_slice, seed=2025)
        assert batch.to_requests() == tuples
        rebuilt = RequestBatch.from_requests(tuples)
        assert rebuilt.to_requests() == tuples


class TestDispatchSwitch:
    def test_custom_discipline_falls_back_to_scalar(self, hh_runtime):
        """No vector keys -> run() silently uses the event engine."""

        class ReverseFifo(QueueDiscipline):
            name = "reverse_fifo"

            def key(self, request):
                return (-request.arrival_ns, -request.rid)

        workload = scenario(ALL_CASES[0], slices=8)
        assert ReverseFifo().vector_keys(
            sample_request_batch(workload, hh_runtime.t_slice_ns)
        ) is None
        custom = QoSSimulator(
            hh_runtime, devices=1, discipline=ReverseFifo(), batch=1
        ).run(workload)
        with reference():
            scalar = QoSSimulator(
                hh_runtime, devices=1, discipline=ReverseFifo(), batch=1
            ).run(workload)
        assert custom.to_dict(include_records=True) == scalar.to_dict(
            include_records=True
        )

    def test_builtin_disciplines_expose_vector_keys(self, hh_runtime):
        workload = scenario(ALL_CASES[0], slices=6)
        batch = sample_request_batch(workload, hh_runtime.t_slice_ns)
        keys = Fifo().vector_keys(batch)
        assert keys is not None
        assert all(len(k) == len(batch) for k in keys)
