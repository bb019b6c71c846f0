"""Every answer of both solvers against the exact optimality check.

tests/referee.py checks an answer from the utility's definition, in
mpmath, whichever demand produced it, so it is the independent check of
both run_once and centralized_solve. Each set here is checked whole: the
benchmark's ref_sweep and large_cell, its fuzz cells at seeds 3, 7, 8 and
11, and the 400 wide-range trees at s = 12 (tests/wide_trees.py). The
trees at s = 60 and s = 300, whose checks take hundreds of digits, run
one per test under the `slow` marker (`pytest -m slow`).
"""

import math
import random
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from nura import NuraError, centralized_solve, run_once, scenario_from_dict
from referee import kkt_gap
from wide_trees import wide_tree

SOLVERS = {
    "run_once": run_once,
    "centralized_solve": lambda config: centralized_solve(config.users, config.capacity),
}


def _bench_cells():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import cells
    finally:
        sys.path.pop(0)
    return cells


def _configs(name):
    """The labelled configs of one tier-1 set, None for a tree that fails
    validation."""
    cells = _bench_cells()
    if name == "ref_sweep":
        return cells.ref_sweep(7)[0]
    if name == "large_cell":
        return cells.large_cell(7)[0]
    if name.startswith("fuzz_cells"):
        return cells.fuzz_cells(int(name.split()[1]))[0]
    return [(f"draw {draw}", _valid(tree)) for draw, tree in enumerate(_wide(12))]


def _wide(s):
    rng = random.Random(1)
    return [wide_tree(rng, s) for _ in range(400)]


def _gap(solve, config):
    """The check's gap on the solver's answer, or None where it raises a
    NuraError (any other exception fails the test)."""
    try:
        result = solve(config)
    except NuraError:
        return None
    return kkt_gap(config, result.app_rates)


def _valid(tree):
    """The tree's config, or None where it fails validation."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
            return scenario_from_dict(tree)
    except NuraError:
        return None


@pytest.mark.parametrize("name", ["ref_sweep", "large_cell", "fuzz_cells 3", "fuzz_cells 7",
                                  "fuzz_cells 8", "fuzz_cells 11", "wide s=12"])
def test_every_answer_of_both_solvers_passes_the_exact_check(name):
    failed, answers = [], 0
    for label, config in _configs(name):
        for solver, solve in SOLVERS.items() if config else ():
            gap = _gap(solve, config)
            answers += gap is not None
            if gap:
                failed.append((label, solver, gap))
    assert answers and not failed, failed


def _wide_params():
    for s in (60, 300):
        for draw, tree in enumerate(_wide(s)):
            for solver in SOLVERS:
                yield pytest.param(tree, solver, id=f"s={s}-draw{draw}-{solver}")


@pytest.mark.slow
@pytest.mark.parametrize("tree, solver", _wide_params())
def test_each_wide_range_answer_passes_the_exact_check(tree, solver):
    config = _valid(tree)
    gap = _gap(SOLVERS[solver], config) if config else None
    assert not gap, gap


def test_the_check_flags_an_answer_off_the_optimum_and_one_off_the_budget(cell):
    """The reference cell at R = 120: moving 1e-3 from one user's log row
    to another's leaves the budget spent but the marginal values apart;
    taking 1e-3 away leaves it unspent."""
    cell = replace(cell, capacity=120.0)
    answer = dict(centralized_solve(cell.users, cell.capacity).app_rates)
    assert kkt_gap(cell, answer) == 0.0
    ue3, ue4 = list(answer["ue3"]), list(answer["ue4"])
    ue3[1] += 1e-3
    ue4[1] -= 1e-3
    assert 0.0 < kkt_gap(cell, {**answer, "ue3": tuple(ue3), "ue4": tuple(ue4)}) < math.inf
    assert kkt_gap(cell, {**answer, "ue4": tuple(ue4)}) == math.inf
