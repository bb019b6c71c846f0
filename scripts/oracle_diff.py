"""Compare centralized_solve and run_once in two checkouts, cell by cell.

    python3 scripts/oracle_diff.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git archive`
of the parent commit and the working tree). Each checkout's solvers run
in its own subprocess, which imports the library from the checkout's
`src` and the benchmark's cells from its `bench`. The sets are
`ref_sweep` and `large_cell` at seed 7, `fuzz_cells` at seeds 3, 7, 8
and 11, and 400 wide-range trees each at s = 12, 60 and 300
(`tests/wide_trees.py`, drawn from `random.Random(1)` per s; a tree that
fails validation counts as the outcome `ValidationError`). Per set and
solver it prints each side's count of every outcome class (solved, or
the NuraError class raised), every cell whose class differs, the largest
|change in a user rate| / R over the cells both sides solve, and each
side's total trials with the number of cells whose trials rose and fell.
The oracle's trials are its price trials (the distinct prices its
clearings, `oracle._clear`, ask their demand callback for, over all of a
cell's clearings); run_once's are its
clearing trials (each `intra_ue.clear_price` call's
`intra_ue.app_rate_at_price` calls over its rows, summed over the cell).
For the oracle it also prints each side's total `dlog_evaluate` calls
(both utility classes, counted on the class) and closed-form demand
evaluations (calls of the demand functions that both classes'
`demand_curve` return, wrapped before any cell is built) over the set, and its price
trials counted per `oracle._clear` call (the distinct prices within
it): summed over the first clearings, summed over the capped users'
splits, and the most in any one clearing; and each side's number of
splits, every clearing after a cell's first. Last, as each solver's
accuracy, it prints each side's count of solved answers that fail
`tests/referee.py`'s exact check (`kkt_gap` > 0, the KKT conditions in
mpmath) and its worst gap in ln p. The check is this script's own
`tests/referee.py`, run in each checkout's subprocess against that
checkout's `utility.regime_table`, so mpmath must be installed; the rest
of the script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

_TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(_TESTS))
from wide_trees import wide_tree  # noqa: E402

WIDE_SCALES = (12, 60, 300)
WIDE_DRAWS = 400
SOLVERS = ("centralized_solve", "run_once")

# Run in the checkout with the referee's directory as its argument: reads
# {set: [tree, ...]} on stdin, prints
# {set: [[label, R, {solver: [outcome, trials, dlog calls, clearings, gap, demands]}], ...]},
# an outcome being the user rates or the name of the NuraError raised,
# clearings the oracle's distinct prices per clearing, in order, and gap the
# referee's kkt_gap of the answer (None where it raised) and demands the closed-form
# demand evaluations. The counters wrap
# with any further arguments, so that they fit every version of what they wrap.
_CHILD = """
import json, sys, warnings
sys.path[:0] = ["src", "bench"]
sys.path.append(sys.argv[1])
import cells
from referee import kkt_gap
from nura import NuraError, centralized_solve, intra_ue, oracle, protocol, run_once
from nura import LogarithmicUtility, SigmoidalUtility, scenario_from_dict

prices = set()
clearings = []  # the distinct prices of each oracle clearing so far
trials = [0.0, 0]  # clearing trials so far, demand calls in this clearing
calls = [0, 0]  # dlog_evaluate calls, closed-form demand evaluations

def counting(original):
    def dlog_evaluate(*args):
        calls[0] += 1
        return original(*args)
    return dlog_evaluate

def reading(original):
    def demand_curve(*args):
        demand = original(*args)

        def counted(*args):
            calls[1] += 1
            return demand(*args)
        return counted
    return demand_curve

for utility in (SigmoidalUtility, LogarithmicUtility):
    utility.dlog_evaluate = counting(utility.dlog_evaluate)
    utility.demand_curve = reading(utility.demand_curve)

def clearing(demand, *args, original=oracle._clear):
    tried = set()
    clearings.append(tried)

    def priced(price, *carried):
        prices.add(price)
        tried.add(price)
        return demand(price, *carried)
    return original(priced, *args)

def demanded(*args, original=intra_ue.app_rate_at_price):
    trials[1] += 1
    return original(*args)

def cleared(table, *args, original=intra_ue.clear_price):
    trials[1] = 0
    out = original(table, *args)
    trials[0] += trials[1] / len(table.rows)
    return out

oracle._clear = clearing
intra_ue.app_rate_at_price = demanded
intra_ue.clear_price = protocol.clear_price = cleared

def certified(config):
    return centralized_solve(config.users, config.capacity)

def outcomes(make):
    try:
        config = make()
    except NuraError as exc:
        return None, {solver: [type(exc).__name__, 0, 0, [], None, 0]
                      for solver in ("centralized_solve", "run_once")}
    out = {}
    for solver, solve in (("centralized_solve", certified),
                          ("run_once", run_once)):
        prices.clear()
        clearings.clear()
        trials[0] = 0.0
        calls[:] = [0, 0]
        try:
            result = solve(config)
        except NuraError as exc:
            rates, gap = type(exc).__name__, None
        else:  # the referee's mpmath touches no counter
            rates, gap = result.user_rates, kkt_gap(config, result.app_rates)
        out[solver] = [rates, len(prices) if solver == "centralized_solve" else trials[0], calls[0],
                       [len(tried) for tried in clearings], gap, calls[1]]
    return config.capacity, out

def solved(labelled):
    return [[label, *outcomes(lambda: config)] for label, config in labelled]

out = {"ref_sweep": solved(cells.ref_sweep(7)[0]), "large_cell": solved(cells.large_cell(7)[0])}
for seed in (3, 7, 8, 11):
    out[f"fuzz_cells {seed}"] = solved(cells.fuzz_cells(seed)[0])
warnings.simplefilter("ignore", RuntimeWarning)
for name, trees in json.load(sys.stdin).items():
    out[name] = [[f"draw {i}", *outcomes(lambda: scenario_from_dict(tree))]
                 for i, tree in enumerate(trees)]
print(json.dumps(out))
"""


def _solve_all(checkout: Path, trees: dict) -> dict:
    done = subprocess.run([sys.executable, "-c", _CHILD, str(_TESTS)], cwd=checkout,
                          input=json.dumps(trees), capture_output=True, text=True)
    if done.returncode:  # an exception other than a NuraError
        sys.exit(f"{checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def _class(rates) -> str:
    return rates if isinstance(rates, str) else "solved"


def _classes(cells, solver: str) -> str:
    counts = Counter(_class(cell[2][solver][0]) for cell in cells)
    return ", ".join(f"{name} {count}" for name, count in sorted(counts.items()))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = {}
    for s in WIDE_SCALES:
        rng = random.Random(1)
        trees[f"wide s={s}"] = [wide_tree(rng, s) for _ in range(WIDE_DRAWS)]
    old, new = _solve_all(args.parent, trees), _solve_all(args.change, trees)
    for name, cells in old.items():
        print(f"{name}: {len(cells)} cells")
        for solver in SOLVERS:
            differ, worst, rose, fell, total, totals = [], 0.0, 0, 0, 0.0, 0.0
            called, calls = 0, 0  # each side's dlog_evaluate calls
            read, reads = 0, 0  # each side's closed-form demand evaluations
            # each side's first, split and most clearing trials, and its splits
            split = [[0, 0, 0, 0], [0, 0, 0, 0]]
            failing, gaps = [0, 0], [0.0, 0.0]  # each side's answers failing the referee, worst gap
            for (label, capacity, parent), (_, _, change) in zip(cells, new[name]):
                (before, tried, dlogs, was, gap, demands), (
                    after, tries, dlogs_now, now, gap_now, demands_now) = (parent[solver],
                                                                          change[solver])
                for side, value in enumerate((gap, gap_now)):
                    if value:  # None where the solver raised, 0 where the answer passes
                        failing[side] += 1
                        gaps[side] = max(gaps[side], value)
                called, calls = called + dlogs, calls + dlogs_now
                read, reads = read + demands, reads + demands_now
                for side, counts in zip(split, (was, now)):
                    side[0] += counts[0] if counts else 0
                    side[1] += sum(counts[1:])
                    side[2] = max([side[2]] + counts)
                    side[3] += max(len(counts) - 1, 0)
                if _class(before) != _class(after):
                    differ.append(f"{label}: {_class(before)} -> {_class(after)}")
                elif not isinstance(before, str):
                    worst = max([worst] + [abs(after[uid] - rate) / capacity
                                           for uid, rate in before.items()])
                rose += tries > tried
                fell += tries < tried
                total, totals = total + tried, totals + tries
            print(f"  {solver}: classes {_classes(cells, solver)} -> {_classes(new[name], solver)}"
                  f"; {len(differ)} change outcome class, max |d user rate| / R = {worst:.3g}, "
                  f"trials {total:g} -> {totals:g} ({rose} rose, {fell} fell)"
                  + (f", dlog_evaluate calls {called} -> {calls},"
                     f" demand evaluations {read} -> {reads}; per clearing: first"
                     f" {split[0][0]} -> {split[1][0]}, splits {split[0][1]} -> {split[1][1]}"
                     f" in {split[0][3]} -> {split[1][3]} clearings,"
                     f" most {split[0][2]} -> {split[1][2]}"
                     if solver == "centralized_solve" else "")
                  + f"; failing the referee {failing[0]} -> {failing[1]},"
                    f" worst gap {gaps[0]:.3g} -> {gaps[1]:.3g}")
            for line in differ:
                print(f"    {line}")


if __name__ == "__main__":
    main()
