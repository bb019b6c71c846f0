"""Alternating parent/change runs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \
        [--workload ref_sweep --workload large_cell] [--pairs 10] [--seconds 20] [--seed 7]

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git archive`
of the parent commit and the working tree). Each run is
`python3 bench/run.py --workload W --seed S --seconds T` started in that
checkout, and its last stdout line, a JSON object, is kept as is. The
pairs alternate which side runs first. Per workload the file holds every
run's line, the median and quartiles (statistics.quantiles, inclusive)
of each end-to-end metric per side, how many pairs the change won per
metric (lower is better for all of them), and one `--trace 1` line per
side for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    result = {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or ["ref_sweep", "large_cell"]:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], workload, args.seed, args.seconds, 0))
                print(workload, pair, side, runs[side][-1]["metrics"]["solve_ms_p50"]["value"],
                      file=sys.stderr)
        wins = {
            name: sum(new["metrics"][name]["value"] < old["metrics"][name]["value"]
                      for old, new in zip(runs["parent"], runs["change"]))
            for name in runs["parent"][0]["metrics"]
        }
        result["workloads"][workload] = {
            "summary": {side: _summary(runs[side]) for side in sides},
            "change_wins": wins,
            "trace": {side: _run(path, workload, args.seed, args.seconds, 1)
                      for side, path in sides.items()},
            "runs": runs,
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
