"""Check how steady the benchmark is: run it over several seeds.

    python3 perfbench/steady.py --workload fig5_cold --runs 10

Runs ``run.py`` once per seed, one run at a time, from the checkout
root.  For each end-to-end metric it prints the median and the spread:
the distance between the first and third quartile (as
:func:`statistics.quantiles` gives them) over the median, next to the
metric's bound in ``BENCHMARK.json``.  A spread above its bound (other
than ``setup_s``'s) makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    unsteady = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = stats.quartile_spread(values[name])
        too_wide = spread > bound and name != "setup_s"
        unsteady |= too_wide
        print(f"{name}: median {stats.median(values[name]):.4g} "
              f"spread {spread:.3f} (bound {bound})"
              + ("  TOO WIDE" if too_wide else ""))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
