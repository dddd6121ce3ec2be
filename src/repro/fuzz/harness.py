"""The invariant conformance harness: run fuzzed cases, check, persist.

Every generated :class:`~repro.fuzz.generator.FuzzCase` is pushed
through the real engine and checked against five invariants:

``conservation``
    Requests and tasks are conserved: the batch path processes exactly
    the scenario's total inferences, and the QoS path's
    ``completed + unfinished == total_requests`` with per-window
    arrival/completion series summing to the totals.
``determinism``
    Running the identical case twice produces bit-identical results
    (full ``to_dict`` payloads compared, floats included).
``scalar_differential``
    The vectorized fast paths are bit-identical to their scalar
    references, each run under :func:`~repro.reference.reference`: the
    slice runtime, the QoS event loop, and (capped per run — scalar LUT
    builds are ~1s each) the allocation DP with the slice runtime on a
    fresh engine.
``spill_resume``
    ``run_many`` exports are byte-identical across the in-memory,
    spill-to-store, and resume-from-store paths.
``slo_accounting``
    The windowed SLO series folds to the cumulative summary: percentile
    orderings hold per window, the last window's cumulative percentiles
    are the result's, overall attainment matches the window series, and
    the final backlog equals ``unfinished``.

An unexpected exception is reported as invariant ``error`` so a fuzzed
input that crashes the engine is still a finding, not a harness abort.

Failures are greedily shrunk (see :mod:`repro.fuzz.shrink`), persisted
into the experiment store as ``fuzz-`` entries, and announced through
the typed ``fuzz_failure`` event; :func:`replay_stored` re-checks every
persisted entry — the tier-1 suite calls it on every run, so a found
bug stays a failing test until fixed.

``REPRO_FUZZ_TEST_BREAK=1`` perturbs one accounting term (the QoS
completed count) inside the *harness*, never the engine — the
acceptance hook proving the catch → shrink → persist → replay loop
works end to end.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from ..api.engine import Engine
from ..api.registry import SCENARIOS
from ..api.results import record_kind
from ..errors import ReproError
from ..obs import events as _events
from ..reference import reference
from ..store.store import Store
from .generator import FuzzCase, generate_cases
from .shrink import shrink_case

__all__ = [
    "INVARIANTS",
    "Violation",
    "CaseReport",
    "FuzzReport",
    "check_case",
    "run_fuzz",
    "replay_stored",
]

#: The invariants the harness checks, in the order they are attempted.
INVARIANTS = (
    "conservation",
    "determinism",
    "scalar_differential",
    "spill_resume",
    "slo_accounting",
)

#: Scalar DP LUT builds cost ~1s; bound them per fuzz run.
DP_CHECK_LIMIT = 3


def _fault_injected() -> bool:
    """Whether the acceptance-test fault injection is armed."""
    value = os.environ.get("REPRO_FUZZ_TEST_BREAK", "").strip().lower()
    return value in {"1", "true", "yes", "on"}


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, and what disagreed."""

    invariant: str
    detail: str

    def to_dict(self) -> dict:
        """The JSON-ready form used in reports and store entries."""
        return {"invariant": self.invariant, "detail": self.detail}


def _check_batch(case: FuzzCase, config, scenario, engine, violations):
    """Batch-path invariants: task conservation, determinism, scalar
    runtime differential."""
    runner = (
        engine.run_record if record_kind(config) == "run"
        else engine.run_fleet_record
    )

    def snapshot():
        return runner(config, scenario=scenario).result.to_dict(
            include_records=True
        )

    first = snapshot()
    processed = first["total_inferences"]
    if processed != scenario.total_inferences:
        violations.append(Violation(
            "conservation",
            f"batch path processed {processed} tasks for "
            f"{scenario.total_inferences} scenario inferences",
        ))
    if first != snapshot():
        violations.append(Violation(
            "determinism", "batch path differs across identical runs"
        ))
    with reference():
        scalar = snapshot()
    if first != scalar:
        violations.append(Violation(
            "scalar_differential",
            "vectorized slice runtime differs from the scalar reference",
        ))
    return first


def _check_qos(case: FuzzCase, config, scenario, engine, violations):
    """QoS-path invariants: request conservation (fault-injection
    point), determinism, scalar DES differential, SLO fold."""
    result = engine.run_qos(config, scenario=scenario)
    payload = result.to_dict()
    completed = payload["completed"] + (1 if _fault_injected() else 0)
    windows = payload["slices"]
    if completed + payload["unfinished"] != payload["total_requests"]:
        violations.append(Violation(
            "conservation",
            f"qos path: completed {completed} + unfinished "
            f"{payload['unfinished']} != total {payload['total_requests']}",
        ))
    if payload["total_requests"] != scenario.total_inferences:
        violations.append(Violation(
            "conservation",
            f"qos path sampled {payload['total_requests']} requests for "
            f"{scenario.total_inferences} scenario inferences",
        ))
    arrivals = sum(w["arrivals"] for w in windows)
    served = sum(w["completed"] for w in windows)
    if arrivals != payload["total_requests"] or served != payload["completed"]:
        violations.append(Violation(
            "conservation",
            f"qos windows book {arrivals} arrivals / {served} completions "
            f"for totals {payload['total_requests']} / {payload['completed']}",
        ))
    second = engine.run_qos(config, scenario=scenario).to_dict()
    if payload != second:
        violations.append(Violation(
            "determinism", "qos path differs across identical runs"
        ))
    with reference():
        scalar = engine.run_qos(config, scenario=scenario).to_dict()
    if payload != scalar:
        violations.append(Violation(
            "scalar_differential",
            "vectorized qos engine differs from the scalar DES",
        ))
    _check_slo_fold(payload, violations)


def _check_slo_fold(payload: dict, violations) -> None:
    """SLO accounting: the windowed series must fold to the summary."""
    windows = payload["slices"]
    for window in windows:
        for prefix in ("", "cumulative_"):
            p50 = window[f"{prefix}p50_ns"]
            p95 = window[f"{prefix}p95_ns"]
            p99 = window[f"{prefix}p99_ns"]
            if p50 is None or p95 is None or p99 is None:
                # A window with no completions yet has no percentiles.
                continue
            if not (p50 <= p95 <= p99):
                violations.append(Violation(
                    "slo_accounting",
                    f"window {window['index']}: {prefix}percentiles are "
                    f"unordered ({p50}, {p95}, {p99})",
                ))
                return
    if windows:
        last = windows[-1]
        for name in ("p50_ns", "p95_ns", "p99_ns"):
            if payload[name] != last[f"cumulative_{name}"]:
                violations.append(Violation(
                    "slo_accounting",
                    f"summary {name} {payload[name]} != last window's "
                    f"cumulative {last[f'cumulative_{name}']}",
                ))
                return
        if last["backlog"] != payload["unfinished"]:
            violations.append(Violation(
                "slo_accounting",
                f"final backlog {last['backlog']} != unfinished "
                f"{payload['unfinished']}",
            ))
            return
    misses = sum(w["slo_misses"] for w in windows)
    completed = payload["completed"]
    expected = 1.0 if completed == 0 else 1.0 - misses / completed
    if payload["slo_attainment"] != expected:
        violations.append(Violation(
            "slo_accounting",
            f"slo_attainment {payload['slo_attainment']} != folded "
            f"{expected} ({misses} misses / {completed} completed)",
        ))


def _check_spill(case: FuzzCase, config, engine, violations) -> None:
    """Export byte-identity across in-memory, spill, and resume paths.

    Runs ``run_many`` (which resolves the scenario through the
    registry, like a real sweep) against a throwaway store.
    """
    memory = engine.run_many((config,)).to_json()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        store = Store(tmp)
        spilled = engine.run_many((config,), store=store, spill=True).to_json()
        resumed = engine.run_many((config,), store=store, resume=True).to_json()
    if spilled != memory:
        violations.append(Violation(
            "spill_resume", "spill-mode export differs from in-memory export"
        ))
    if resumed != memory:
        violations.append(Violation(
            "spill_resume", "store-resumed export differs from in-memory export"
        ))


def _check_dp(case: FuzzCase, config, engine, dp_checked, violations) -> None:
    """Allocation-DP differential on a fresh engine, once per runtime
    key (scalar LUT builds are expensive), capped per fuzz run."""
    key = engine.resolve(config).key
    if key in dp_checked or len(dp_checked) >= DP_CHECK_LIMIT:
        return
    dp_checked.add(key)
    single = config.replace(fleet=1)
    vector = Engine(use_disk_cache=False).run_record(
        single, scenario=case.scenario()
    ).result.to_dict()
    with reference():
        scalar = Engine(use_disk_cache=False).run_record(
            single, scenario=case.scenario()
        ).result.to_dict()
    if vector != scalar:
        violations.append(Violation(
            "scalar_differential",
            "vectorized allocation DP differs from the scalar reference",
        ))


def check_case(case: FuzzCase, engine: Engine | None = None, *,
               dp_checked: set | None = None) -> list:
    """Run one case through every invariant; returns its violations.

    ``engine`` should be store-less (results must be computed, not
    resumed); one engine reused across cases memoizes runtimes.
    ``dp_checked`` carries the set of runtime keys whose DP
    differential already ran (see :data:`DP_CHECK_LIMIT`).  The
    materialized scenario is registered under
    ``fuzz-scenario-<case_seed>`` for the duration of the check so
    registry-resolving paths (``run_many``, the store's
    content-addressing) treat it like any preset.
    """
    engine = Engine() if engine is None else engine
    dp_checked = set() if dp_checked is None else dp_checked
    violations: list = []
    key = f"fuzz-scenario-{case.case_seed}"
    try:
        scenario = case.scenario()
        SCENARIOS.register(key, scenario, overwrite=True)
        try:
            config = case.config(key)
            _check_batch(case, config, scenario, engine, violations)
            _check_qos(case, config, scenario, engine, violations)
            _check_spill(case, config, engine, violations)
            _check_dp(case, config, engine, dp_checked, violations)
        finally:
            SCENARIOS.unregister(key)
    except ReproError as error:
        violations.append(Violation(
            "error", f"{type(error).__name__}: {error}"
        ))
    return violations


@dataclass(frozen=True)
class CaseReport:
    """One case's verdict: its violations, shrunk form, and store key."""

    case: FuzzCase
    violations: tuple
    shrunk: FuzzCase | None = None
    store_key: str | None = None

    @property
    def failed(self) -> bool:
        """Whether any invariant was violated."""
        return bool(self.violations)

    def to_dict(self) -> dict:
        """The JSON-ready form used in the CLI report."""
        return {
            "case_seed": self.case.case_seed,
            "program": self.case.label,
            "case": self.case.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "shrunk": None if self.shrunk is None else self.shrunk.to_dict(),
            "store_key": self.store_key,
        }


@dataclass(frozen=True)
class FuzzReport:
    """A whole fuzz run: the batch seed and every case's report."""

    seed: int
    reports: tuple

    @property
    def violation_count(self) -> int:
        """Total invariant violations across the batch."""
        return sum(len(report.violations) for report in self.reports)

    @property
    def failures(self) -> tuple:
        """The failing case reports, in batch order."""
        return tuple(report for report in self.reports if report.failed)

    def to_dict(self) -> dict:
        """The JSON report (`repro fuzz --json`): seed-deterministic,
        no timestamps or host paths, so identical seeds diff empty."""
        return {
            "seed": self.seed,
            "cases": len(self.reports),
            "violations": self.violation_count,
            "failures": len(self.failures),
            "reports": [report.to_dict() for report in self.reports],
        }

    def render(self) -> str:
        """The human summary for the CLI."""
        lines = [
            f"fuzz seed={self.seed} cases={len(self.reports)} "
            f"violations={self.violation_count}"
        ]
        for report in self.reports:
            status = "FAIL" if report.failed else "ok"
            lines.append(
                f"  [{status}] seed={report.case.case_seed} "
                f"program={report.case.label}"
            )
            for violation in report.violations:
                lines.append(
                    f"         {violation.invariant}: {violation.detail}"
                )
            if report.shrunk is not None:
                lines.append(
                    f"         shrunk -> {report.shrunk.label} "
                    f"(slices={report.shrunk.slices}, "
                    f"fleet={report.shrunk.fleet})"
                )
            if report.store_key is not None:
                lines.append(f"         stored as {report.store_key}")
        return "\n".join(lines)


def _persist_failure(store: Store, case: FuzzCase, shrunk: FuzzCase | None,
                     violations) -> str | None:
    """Write one failure into the store as a ``fuzz-`` entry."""
    minimal = shrunk if shrunk is not None else case
    entry = {
        "seed": case.case_seed,
        "case": minimal.to_dict(),
        "original_case": case.to_dict() if shrunk is not None else None,
        "invariant": violations[0].invariant,
        "detail": violations[0].detail,
        "violations": [v.to_dict() for v in violations],
        "program_label": minimal.label,
    }
    return store.put_fuzz(entry)


def run_fuzz(seed: int, count: int, *, engine: Engine | None = None,
             store: Store | None = None, shrink: bool = True) -> FuzzReport:
    """Generate, check, shrink, and persist one fuzz batch.

    Pure in ``seed``/``count`` modulo the engine's correctness: the
    same seed produces the same cases, verdicts, and JSON report.
    Failures are shrunk to a minimal still-failing case (preserving the
    first violated invariant), persisted into ``store`` when one is
    given, and announced via the ``fuzz_failure`` event.
    """
    engine = Engine() if engine is None else engine
    dp_checked: set = set()
    reports = []
    for case in generate_cases(seed, count):
        violations = check_case(case, engine, dp_checked=dp_checked)
        shrunk = None
        store_key = None
        if violations:
            invariant = violations[0].invariant
            if shrink:
                def still_fails(candidate, _invariant=invariant):
                    found = check_case(
                        candidate, engine, dp_checked=dp_checked
                    )
                    return any(v.invariant == _invariant for v in found)
                shrunk = shrink_case(case, still_fails)
                if shrunk == case:
                    shrunk = None
            if store is not None:
                store_key = _persist_failure(store, case, shrunk, violations)
            _events.emit(
                "fuzz_failure",
                seed=case.case_seed,
                invariant=invariant,
                key=store_key or "",
            )
        reports.append(CaseReport(
            case=case,
            violations=tuple(violations),
            shrunk=shrunk,
            store_key=store_key,
        ))
    return FuzzReport(seed=seed, reports=tuple(reports))


def replay_stored(store: Store, engine: Engine | None = None) -> list:
    """Re-check every persisted fuzz regression entry.

    Returns one :class:`CaseReport` per stored entry (keyed by its
    store key), re-running the full invariant suite on the persisted
    minimal case.  The tier-1 suite asserts all of them pass — a fuzz
    finding stays a failing test until the engine is fixed.
    """
    engine = Engine() if engine is None else engine
    dp_checked: set = set()
    reports = []
    for entry in store.fuzz_entries():
        case = FuzzCase.from_dict(entry["case"])
        violations = check_case(case, engine, dp_checked=dp_checked)
        reports.append(CaseReport(
            case=case,
            violations=tuple(violations),
            store_key=entry.get("key"),
        ))
    return reports


def report_json(report: FuzzReport) -> str:
    """The canonical JSON encoding of a report (stable key order)."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
