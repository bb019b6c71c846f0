"""Compare centralized_solve in two checkouts, cell by cell.

    python3 scripts/oracle_diff.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git archive`
of the parent commit and the working tree). Each checkout's oracle runs
in its own subprocess, which imports the library from the checkout's
`src` and the benchmark's cells from its `bench`. The sets are
`ref_sweep` and `large_cell` at seed 7, `fuzz_cells` at seeds 3, 7, 8
and 11, and 400 wide-range trees each at s = 12, 60 and 300
(`tests/wide_trees.py`, drawn from `random.Random(1)` per s; a tree that
fails validation counts as the outcome `ValidationError`). Per set it
prints the cell count, every cell whose outcome class differs (solved,
or the NuraError class raised), the largest |change in a user rate| / R
over the cells both sides solve, and each side's total price trials
(the distinct log prices passed to `oracle._demand` over all of a
cell's clearings) with the number of cells whose trials rose and fell.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from wide_trees import wide_tree  # noqa: E402

WIDE_SCALES = (12, 60, 300)
WIDE_DRAWS = 400

# Run in the checkout: reads {set: [tree, ...]} on stdin, prints
# {set: [[label, R, outcome, trials], ...]}, an outcome being the user
# rates or the name of the NuraError raised. The trials are counted by a
# wrapper that takes any arguments, so that it fits every _demand.
_CHILD = """
import json, sys, warnings
sys.path[:0] = ["src", "bench"]
import cells
from nura import NuraError, centralized_solve, oracle, scenario_from_dict

prices = set()

def counted(*args, original=oracle._demand):
    prices.add(args[1])
    return original(*args)

oracle._demand = counted

def outcome(make):
    prices.clear()
    try:
        config = make()
        rates = centralized_solve(config.users, config.capacity).user_rates
        return config.capacity, rates, len(prices)
    except NuraError as exc:
        return None, type(exc).__name__, len(prices)

def solved(labelled):
    return [[label, *outcome(lambda: config)] for label, config in labelled]

out = {"ref_sweep": solved(cells.ref_sweep(7)[0]), "large_cell": solved(cells.large_cell(7)[0])}
for seed in (3, 7, 8, 11):
    out[f"fuzz_cells {seed}"] = solved(cells.fuzz_cells(seed)[0])
warnings.simplefilter("ignore", RuntimeWarning)
for name, trees in json.load(sys.stdin).items():
    out[name] = [[f"draw {i}", *outcome(lambda: scenario_from_dict(tree))]
                 for i, tree in enumerate(trees)]
print(json.dumps(out))
"""


def _solve_all(checkout: Path, trees: dict) -> dict:
    done = subprocess.run([sys.executable, "-c", _CHILD], cwd=checkout, input=json.dumps(trees),
                          capture_output=True, text=True)
    if done.returncode:  # an exception other than a NuraError
        sys.exit(f"{checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def _class(rates) -> str:
    return rates if isinstance(rates, str) else "solved"


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
        differ, worst, rose, fell = [], 0.0, 0, 0
        for (label, capacity, before, tried), (_, _, after, tries) in zip(cells, new[name]):
            if _class(before) != _class(after):
                differ.append(f"{label}: {_class(before)} -> {_class(after)}")
            elif not isinstance(before, str):
                worst = max([worst] + [abs(after[uid] - rate) / capacity
                                       for uid, rate in before.items()])
            rose += tries > tried
            fell += tries < tried
        print(f"{name}: {len(cells)} cells, {len(differ)} change outcome class, "
              f"max |d user rate| / R = {worst:.3g}, price trials "
              f"{sum(cell[3] for cell in cells)} -> {sum(cell[3] for cell in new[name])} "
              f"({rose} rose, {fell} fell)")
        for line in differ:
            print(f"  {line}")


if __name__ == "__main__":
    main()
