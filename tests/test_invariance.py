"""Exact relations between cells: units of price and the order of users.

Doubling every beta doubles the price at which each application demands
a given rate, and nothing else: the allocation is the same. Multiplying
every beta by 2^30 rescales every price exactly, so a solver whose path
depends on the units of price (a start price, a bracket, a floor) shows
it here. Listing the users in reverse order changes no user's problem.
Both solvers must keep the outcome class of each of the benchmark's
fuzz cells at seed 7 under either change, and every user rate within
max(0.1, 0.5% of R).
"""

import copy
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
    return tree


def _reversed_users(tree):
    tree = copy.deepcopy(tree)
    tree["users"].reverse()
    return tree


@pytest.fixture(scope="module")
def fuzz_trees():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import cells
    finally:
        sys.path.pop(0)
    return cells.fuzz_trees(7)


def _outcome(solve, tree):
    """The user rates by id, or the name of the NuraError raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        config = scenario_from_dict(tree)
    try:
        return dict(solve(config).user_rates)
    except NuraError as exc:  # any other exception fails the test
        return type(exc).__name__


@pytest.mark.parametrize("change", [_scaled_betas, _reversed_users],
                         ids=["betas_times_2_30", "users_reversed"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_fuzz_cells_solve_alike_under_an_exact_change(fuzz_trees, solver, change):
    solve = SOLVERS[solver]
    for tree in fuzz_trees:
        want, got = _outcome(solve, tree), _outcome(solve, change(tree))
        label = tree["description"]
        if isinstance(want, str) or isinstance(got, str):
            assert want == got, (label, want, got)
            continue
        tol = max(0.1, 0.005 * tree["R"])
        assert want.keys() == got.keys(), label
        for uid, rate in want.items():
            assert abs(got[uid] - rate) <= tol, (label, uid, rate, got[uid])
