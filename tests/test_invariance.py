"""Exact relations between cells: units of price, units of rate and the
order of users.

Doubling every beta doubles the price at which each application demands
a given rate, and nothing else: the allocation is the same. Multiplying
every beta by 2^30 rescales every price exactly, so a solver whose path
depends on the units of price (a start price, a bracket, a floor) shows
it here. Measuring rate in units 1 / lambda multiplies R, every b, r_max
and target by lambda and divides every a and k by lambda: each a r, a b
and k r the utility forms is unchanged, exactly so for lambda = 2^20 or
2^-20, and the allocation scales by lambda, so a solver whose path
depends on the units of rate shows it here. Listing the users in reverse
order changes no user's problem. Both solvers must keep the outcome class
of each of the benchmark's fuzz cells at seeds 3, 7, 8 and 11 under each
change, and every user rate, scaled back, within 1e-8 R. Three cells do
not yet: each is a failure to clear within the float range (ROADMAP.md,
item 2) that a change of units moves, and each is a strict expected
failure, so that a mend shows.
"""

import copy
import functools
import warnings
from pathlib import Path

import pytest

from nura import NuraError, centralized_solve, run_once, scenario_from_dict

SOLVERS = {
    "run_once": run_once,
    "centralized_solve": lambda config: centralized_solve(config.users, config.capacity),
}


def _scaled_betas(tree):
    tree = copy.deepcopy(tree)
    for user in tree["users"]:
        user["beta"] *= 2.0 ** 30
    return tree, 1.0


def _scaled_units(scale):
    def change(tree):
        tree = copy.deepcopy(tree)
        tree["R"] *= scale
        for user in tree["users"]:
            for app in user["apps"]:
                utility = app["utility"]
                if utility["kind"] == "sigmoidal":
                    utility["a"] /= scale
                    utility["b"] *= scale
                else:
                    utility["k"] /= scale
                    utility["r_max"] *= scale
                if "target_rate" in app:
                    app["target_rate"] *= scale
        return tree, scale
    return change


def _reversed_users(tree):
    tree = copy.deepcopy(tree)
    tree["users"].reverse()
    return tree, 1.0


# Each change returns the changed tree and the factor it scales the rates by.
CHANGES = {
    "betas_times_2_30": _scaled_betas,
    "users_reversed": _reversed_users,
    "units_times_2_20": _scaled_units(2.0 ** 20),
    "units_over_2_20": _scaled_units(2.0 ** -20),
}


# (cell, solver, change) whose outcome class flips: run_once raises SolverError
# on 3/119 and 11/88 and solves them with every beta times 2^30;
# centralized_solve raises SolverError on 3/83 and solves it in units of 2^-20.
FLIPS = (
    ("fuzz 3/119", "run_once", "betas_times_2_30"),
    ("fuzz 11/88", "run_once", "betas_times_2_30"),
    ("fuzz 3/83", "centralized_solve", "units_over_2_20"),
)


@functools.lru_cache(maxsize=None)
def _fuzz_trees(seed):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import cells
    finally:
        sys.path.pop(0)
    return cells.fuzz_trees(seed)


@pytest.fixture(scope="module")
def fuzz_trees():
    return _fuzz_trees(7)


def _outcome(solve, tree):
    """The user rates by id, or the name of the NuraError raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        config = scenario_from_dict(tree)
    try:
        return dict(solve(config).user_rates)
    except NuraError as exc:  # any other exception fails the test
        return type(exc).__name__


def _assert_alike(solver, change, trees):
    solve = SOLVERS[solver]
    for tree in trees:
        changed, scale = CHANGES[change](tree)
        want, got = _outcome(solve, tree), _outcome(solve, changed)
        label = tree["description"]
        if isinstance(want, str) or isinstance(got, str):
            assert want == got, (label, want, got)
            continue
        assert want.keys() == got.keys(), label
        for uid, rate in want.items():
            assert abs(got[uid] / scale - rate) <= 1e-8 * tree["R"], (label, uid, rate, got[uid])


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_fuzz_cells_solve_alike_under_an_exact_change(fuzz_trees, solver, change):
    _assert_alike(solver, change, fuzz_trees)


@pytest.mark.parametrize("seed", (3, 8, 11))
@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_more_fuzz_seeds_solve_alike_under_an_exact_change(seed, solver, change):
    flipped = {cell for cell, *flip in FLIPS if flip == [solver, change]}
    _assert_alike(solver, change,
                  [tree for tree in _fuzz_trees(seed) if tree["description"] not in flipped])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a float-range failure to clear (ROADMAP.md, item 2)")
@pytest.mark.parametrize("cell, solver, change", FLIPS)
def test_a_float_range_failure_keeps_its_class_under_an_exact_change(cell, solver, change):
    seed, index = (int(part) for part in cell.split()[1].split("/"))
    _assert_alike(solver, change, [_fuzz_trees(seed)[index]])
