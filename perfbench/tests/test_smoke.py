"""Each workload end to end at tiny size, as the benchmark command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    done = bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = layers.PER_LAYER if trace == "1" else harness.END_TO_END
    assert {name: unit for name, unit, *_ in catalogue} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(tmp_path, "--workload", "fig5_cold", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
