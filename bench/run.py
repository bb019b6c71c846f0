"""Run one workload of the nura benchmark and print its metrics.

    python3 bench/run.py --workload ref_sweep --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from the
checkout's ``src``. It prints a readable report, then as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the metrics being the end-to-end ones of BENCHMARK.json (``--trace 0``)
or the per-layer ones (``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from clock import NormalizedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# name: (certify on every pass, else once per run; percentile of solve_ms_tail).
# The percentile is fixed so that it means the same in every run: the
# highest that keeps ten samples beyond it at this workload's usual count.
WORKLOADS = {"ref_sweep": (True, 95), "fuzz_cells": (True, 95), "large_cell": (False, 75)}
# Fresh-interpreter set-up samples besides the measuring process's own.
SETUP_PROBES = 6
REPORTED_END_TO_END = ("setup_s", "solve_ms_p50", "solve_ms_tail", "solve_total_s",
                       "certify_ms_p50", "certify_total_s", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print its seconds")
    return parser.parse_args(argv)


def _setup(workload: str, seed: int):
    """Import the library and build the cells: what a user waits for first.

    Returns (cells, load_s, seconds), both times at the reference speed.
    """
    with NormalizedClock() as clock, clock.span() as timing:
        import cells

        built, load_s = getattr(cells, workload)(seed)
    return built, load_s * timing.seconds / timing.raw, timing.seconds


def _probe(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _report(args, result, metrics: dict, setups) -> None:
    import harness

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result.passes)} untraced + {len(result.traced)} traced  "
          f"cells/pass {len(result.passes[0].solve_s)}")
    print(f"digest {' '.join(sorted(result.digests))}")
    print(f"attempted {result.attempted}  failed {result.failed}  wrong {result.wrong}  "
          f"conservation_violations {result.conservation_violations}  "
          f"run_once errors {dict(result.errors)}  "
          f"certified {result.certified}  certify errors {dict(result.certify_errors)}")
    solve = [s for p in result.passes for s in p.solve_s]
    certify = [s for p in result.passes for s in p.certify_s]
    samples = {"solve_ms_p50": len(solve), "solve_ms_tail": len(solve),
               "solve_total_s": len(result.passes), "certify_ms_p50": len(certify),
               "certify_total_s": sum(1 for p in result.passes if p.certify_s),
               "setup_s": len(setups)}
    units = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    for name, value in metrics.items():
        note = f"n={samples[name]}" if name in samples else ""
        if name == "solve_ms_tail":
            note += f" p{WORKLOADS[args.workload][1]}"
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "nura" / "__init__.py").is_file():
        print(f"bench: no nura sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    cells, load_s, setup_s = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import harness

    trace_to = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_to = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
    certify_every_pass, tail_percentile = WORKLOADS[args.workload]
    result = harness.measure(cells, args.seconds, certify_every_pass, tail_percentile,
                             trace_to)
    if args.trace:
        metrics = harness.per_layer(result, load_s)
        units = harness.PER_LAYER_UNITS
    else:
        metrics = harness.end_to_end(result, statistics.median(setups), tail_percentile)
        units = harness.END_TO_END_UNITS
    _report(args, result, metrics, setups)
    if trace_to is not None:
        print(f"spans written to {trace_to.relative_to(ROOT)}")
    reported = metrics if args.trace else {k: metrics[k] for k in REPORTED_END_TO_END}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
