"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
finished (``correct`` says whether every output checked out); 2 means
it could not run (for example, no program source in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402

WORKLOADS = ("fig5_cold", "qos_overload", "serve_mixed", "sweep_store")

#: Hard stop well inside the 180 s a run may take.
WATCHDOG_S = 170

#: The program's results depend on the interpreter's string-hash seed
#: (set iteration order feeds float sums; see README.md), so every
#: process of a run - this one, the daemon, the sweep workers - uses
#: this one, and in-process references match out-of-process results.
HASH_SEED = "0"


def _module(name: str):
    import importlib

    return importlib.import_module(f"perfbench.{name}")


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's set-up and exit (the "
                             "benchmark times this in a fresh interpreter)")
    parser.add_argument("--scratch", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        script = str(Path(__file__).resolve())
        os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])
    args = _parse()
    try:
        scratch = harness.bootstrap(ROOT, args.scratch)
    except harness.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = _module(args.workload)
    ctx = harness.Context(args.seed, args.seconds, bool(args.trace), scratch)
    if args.setup_only:
        workload.setup(ctx, args.size)
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        metrics = workload.run(ctx, args.size)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
