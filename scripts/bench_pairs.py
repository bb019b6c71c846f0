"""Alternating parent/change runs of the benchmark, summarised in one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \
        [--workload ref_sweep --workload large_cell] [--pairs 10] [--seconds 20] [--seed 7]

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git archive`
of the parent commit and the working tree). Each run is
`python3 bench/run.py --workload W --seed S --seconds T` started in that
checkout, and its last stdout line, a JSON object, is kept with the run's
output digest (its `digest` line) added under "digest". The pairs
alternate which side runs first. Per workload the file holds every run's
line, the median and quartiles (statistics.quantiles, inclusive) of each
end-to-end metric per side, how many pairs the change won per metric
(lower is better for all of them), whether every run of both sides
printed the same digest (a change that must not move any output shows
true), and one `--trace 1` line per side for the per-layer metrics.
Per side it sums the runs' `attempted` and `failed` operations and
records whether every run was `correct` (under `outcomes`). For each
end-to-end metric of the change checkout's BENCHMARK.json it also holds
`gain_shown`, true when the change won at least 9 in 10 of the pairs (a
tie counts for neither side), its median is lower than the parent's by
more than the parent's q3 - q1, every change run was correct and the
change failed no larger share of its operations than the parent;
`regressed`, true when the change's median exceeds the parent's by more
than the metric's relative `bound`; and `unresolved`, true when the
parent's runs spread too widely to tell, (q3 - q1) / median above that
bound, unless every change run beat every parent run (a metric read once
per run, such as `large_cell`'s certification, can spread so). Once the
file is written, one stdout line per workload and gated metric gives both
medians, the change in %, the pairs won, `gain_shown`, `regressed`,
`unresolved` and `digests_agree`, and one more line both sides' outcomes.
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
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["digest"] = next(line.split(" ", 1)[1] for line in lines if line.startswith("digest "))
    return run


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
    if args.pairs < 2:  # quartiles need two runs a side; fail before any run, not after all
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    sides = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
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
        summary = {side: _summary(runs[side]) for side in sides}
        old, new = summary["parent"], summary["change"]
        gated = [name for name in bounds if name in old]
        outcomes = {side: {"attempted": sum(run["attempted"] for run in runs[side]),
                           "failed": sum(run["failed"] for run in runs[side]),
                           "correct": all(run["correct"] for run in runs[side])}
                    for side in sides}
        before, after = outcomes["parent"], outcomes["change"]
        # failed / attempted compared without a division, so 0 attempted counts as no share
        sound = after["correct"] and (after["failed"] * before["attempted"]
                                      <= before["failed"] * after["attempted"])
        values = {side: {name: [run["metrics"][name]["value"] for run in runs[side]]
                         for name in gated} for side in sides}
        result["workloads"][workload] = {
            "summary": summary,
            "outcomes": outcomes,
            "change_wins": wins,
            "gain_shown": {
                name: sound and wins[name] * 10 >= 9 * args.pairs
                and old[name]["median"] - new[name]["median"] > old[name]["q3"] - old[name]["q1"]
                for name in gated
            },
            "regressed": {
                name: new[name]["median"] > old[name]["median"] * (1.0 + bounds[name])
                for name in gated
            },
            "unresolved": {
                name: (old[name]["q3"] - old[name]["q1"]) > bounds[name] * old[name]["median"]
                and not max(values["change"][name]) < min(values["parent"][name])
                for name in gated
            },
            "digests_agree": len({run["digest"] for side in sides for run in runs[side]}) == 1,
            "trace": {side: _run(path, workload, args.seed, args.seconds, 1)
                      for side, path in sides.items()},
            "runs": runs,
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, entry in result["workloads"].items():
        old, new = (entry["summary"][side] for side in sides)
        for name in entry["gain_shown"]:
            before, after = old[name]["median"], new[name]["median"]
            print(f"{workload} {name}: {before:.6g} -> {after:.6g} {old[name]['unit']} "
                  f"({(after / before - 1.0) * 100.0:+.1f}%), won {entry['change_wins'][name]}"
                  f"/{args.pairs}, gain_shown {entry['gain_shown'][name]}, "
                  f"regressed {entry['regressed'][name]}, unresolved {entry['unresolved'][name]}, "
                  f"digests_agree {entry['digests_agree']}")
        print(f"{workload} outcomes: " + "; ".join(
            f"{side} {counts['failed']} of {counts['attempted']} failed, correct {counts['correct']}"
            for side, counts in entry["outcomes"].items()))


if __name__ == "__main__":
    main()
