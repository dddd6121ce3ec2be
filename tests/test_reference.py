"""The one scalar-reference switch: ``REPRO_REFERENCE`` / ``reference()``."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core import combine, knapsack, placement
from repro.core.runtime import TimeSliceRuntime
from repro.qos import QoSSimulator
from repro.reference import reference, use_reference
from repro.workloads import ScenarioCase, scenario

WORKLOAD = scenario(ScenarioCase.LOW_CONSTANT, slices=3)


def dp_table(rt):
    return knapsack.knapsack_min_energy(
        rt.optimizer.spaces[:2], t_steps=8, max_blocks=4,
        time_step_ns=rt.optimizer.time_step_ns,
    )


#: consult point -> (owner, reference attribute, call on a runtime)
CONSULT_POINTS = {
    "knapsack": (knapsack, "_dp_scalar", dp_table),
    "combine": (combine, "_set_allocation_state_scalar",
                lambda rt: combine.set_allocation_state(dp_table(rt), None, 4)),
    "placement": (placement, "set_allocation_state",
                  lambda rt: rt.optimizer.build_lut()),
    "runtime": (TimeSliceRuntime, "run_scalar", lambda rt: rt.run(WORKLOAD)),
    "qos": (QoSSimulator, "run_scalar",
            lambda rt: QoSSimulator(rt, devices=2).run(WORKLOAD)),
}


class ReferenceTaken(Exception):
    """Raised by a stubbed-out reference path when it is selected."""


def take_reference(*args, **kwargs):
    raise ReferenceTaken


@pytest.mark.parametrize("point", sorted(CONSULT_POINTS))
def test_env_var_selects_each_reference_path(point, runtimes, monkeypatch):
    owner, name, call = CONSULT_POINTS[point]
    monkeypatch.setattr(owner, name, take_reference)
    monkeypatch.setenv("REPRO_REFERENCE", "1")
    with pytest.raises(ReferenceTaken):
        call(runtimes["HH-PIM"])
    with reference(False):
        call(runtimes["HH-PIM"])  # the fast path: no reference taken
    assert use_reference()


def test_subprocesses_inherit_the_switch(monkeypatch):
    # Sweep workers are started with a copy of os.environ, so the switch
    # must live there, not in a module global.
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    monkeypatch.setenv(
        "PYTHONPATH", src_dir + os.pathsep + os.environ.get("PYTHONPATH", "")
    )
    monkeypatch.delenv("REPRO_REFERENCE", raising=False)
    code = "from repro.reference import use_reference; print(use_reference())"
    with reference():
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
        )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"
    assert "REPRO_REFERENCE" not in os.environ
