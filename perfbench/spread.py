"""Run-to-run spread and seed-independence check for one workload.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload noise-grid --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, then prints for every
end-to-end metric its median over the runs and its inter-quartile range
as a share of that median, next to the bound in ``BENCHMARK.json``.  It
also checks that every seed fails the same checks (none, at a correct
commit).  Exits non-zero when a run fails, the failed checks differ
between seeds, or a spread (other than ``setup_s``'s) exceeds a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from stats import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    lines = proc.stdout.splitlines()
    verdicts = next(json.loads(l[len("verdicts: "):]) for l in lines
                    if l.startswith("verdicts: "))
    # How many times a check runs depends on how many cycles fit the
    # run; the verdict is which checks failed.
    failed = sorted(name for name, ok in verdicts.items() if not ok)
    return json.loads(lines[-1]), failed, wall


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    verdicts, walls, ok = None, [], True
    for seed in args.seeds:
        result, v, wall = run_once(args.workload, seed, args.seconds)
        walls.append(wall)
        ok &= result["correct"]
        if verdicts is None:
            verdicts = v
        elif v != verdicts:
            print(f"seed {seed}: failed checks {v} differ from seed {args.seeds[0]}'s {verdicts}")
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              + " ".join(f"{n}={values[n][-1]:.5g}" for n in values), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, wall median {median(walls):.1f}s, "
          f"max {max(walls):.1f}s")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = relative_spread(xs) if len(xs) >= 2 else float("nan")
        steady = m["name"] == "setup_s" or spread < m["bound"] / 3
        ok &= steady
        print(f"  {m['name']:<24} median {median(xs):<12.6g} spread {spread:6.3f} "
              f"bound {m['bound']:.2f}{'' if steady else '  UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
