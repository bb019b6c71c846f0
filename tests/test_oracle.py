"""Centralized solvers: analytic points, grid cross-checks, tie rules."""

import ast
import math
import random
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from nura import (
    Application,
    ContractError,
    DomainError,
    LogarithmicUtility,
    NuraError,
    SigmoidalUtility,
    SolverError,
    UserClass,
    UserProfile,
    bundled_schedule_path,
    centralized_solve,
    grid_search_solve,
    load_schedule,
    oracle,
    run_first_stage,
    scenario,
)
from nura.utility import CaseFlag, add_up, objective, regime_table
from referee import kkt_gap
from wide_trees import wide_tree


def _user(uid, cls, apps):
    return UserProfile(uid, cls, beta=1.0, apps=tuple(apps))


def _app(utility, weight, target=None):
    return Application(utility=utility, weight=weight, target_rate=target)


LOG_UNIT = LogarithmicUtility(k=1.0, r_max=20.0)


def test_single_app_absorbs_capacity():
    user = _user("solo", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)])
    result = centralized_solve([user], 7.0)
    assert result.user_rates["solo"] == pytest.approx(7.0, abs=1e-6)
    assert result.app_rates["solo"][0] == pytest.approx(7.0, abs=1e-6)


def test_degenerate_multiplier_point_matches_analytic_solution(cell):
    """Capacity 55: the dual lands exactly on the steep sigmoid's plateau.

    Closed form via Lambert W: the plateau app absorbs the residual, the
    shallow sigmoid sits on its low-rate wall at ln(5/2), and each
    logarithmic app solves (1+kr)ln(1+kr) = w k / 1.5.
    """
    result = centralized_solve(cell.users, 55.0)
    truth = {
        "ue1": 20.254407611450632,
        "ue2": 30.065602324957995,
        "ue3": 3.6980970067592231,
        "ue4": 0.98189305683214989,
    }
    for uid, expected in truth.items():
        assert result.user_rates[uid] == pytest.approx(expected, abs=1e-3)
    assert sum(result.user_rates.values()) == pytest.approx(55.0, rel=1e-9)


def test_scarce_capacity_zeroes_regulars(cell):
    result = centralized_solve(cell.users, 30.0)
    assert result.user_rates["ue3"] == 0.0
    assert result.user_rates["ue4"] == 0.0
    assert result.app_rates["ue3"] == (0.0, 0.0)
    assert sum(result.user_rates.values()) == pytest.approx(30.0, rel=1e-6)
    # per-user caps: nobody exceeds their total target under scarcity
    assert result.user_rates["ue1"] <= 20.0 + 1e-9
    assert result.user_rates["ue2"] <= 30.0 + 1e-9
    # ue1 sits at its cap; its two apps split the 20 where their weighted
    # marginal log-utilities agree.
    ue1 = next(user for user in cell.users if user.user_id == "ue1")
    assert result.user_rates["ue1"] == pytest.approx(20.0, rel=1e-9)
    marginals = [
        user_app.weight * user_app.utility.dlog_evaluate(rate)
        for user_app, rate in zip(ue1.apps, result.app_rates["ue1"])
    ]
    assert marginals[0] == pytest.approx(marginals[1], rel=1e-6)


def test_abundant_capacity_covers_targets(cell):
    result = centralized_solve(cell.users, 120.0)
    assert result.user_rates["ue1"] >= 20.0 - 1e-9
    assert result.user_rates["ue2"] >= 30.0 - 1e-9
    assert result.app_rates["ue1"][0] >= 20.0 - 1e-9  # targeted app floor
    assert sum(result.user_rates.values()) == pytest.approx(120.0, rel=1e-9)


@pytest.mark.parametrize("capacity", [120.0, 30.0])
def test_replicated_cell_matches_single_cell(cell, capacity):
    """Sixteen copies of every user at sixteen times the capacity get the
    single cell's rates, abundant (120) and scarce (30) alike."""
    copies = 16
    users = [
        replace(user, user_id=f"{user.user_id}-{i}")
        for i in range(copies)
        for user in cell.users
    ]
    single = centralized_solve(cell.users, capacity)
    result = centralized_solve(users, copies * capacity)
    for user in users:
        base = user.user_id.rsplit("-", 1)[0]
        for got, want in zip(result.app_rates[user.user_id], single.app_rates[base]):
            assert got == pytest.approx(want, abs=1e-6)


def test_capacity_validation(cell):
    with pytest.raises(DomainError):
        centralized_solve(cell.users, 0.0)
    with pytest.raises(DomainError):
        grid_search_solve(cell.users[:1], -3.0)


@pytest.mark.parametrize("solve", [centralized_solve, grid_search_solve])
def test_users_sharing_an_id_are_rejected(solve):
    # Both solvers merged them: they gave {'u': 3.0} at R = 3.
    curve = LogarithmicUtility(k=1.0, r_max=10.0)
    users = [UserProfile("u", UserClass.REGULAR, beta=beta, apps=(_app(curve, 1.0),))
             for beta in (1.0, 2.0)]
    with pytest.raises(ContractError, match="user ids must be unique"):
        solve(users, 3.0)


@pytest.mark.parametrize("solve", [run_first_stage, centralized_solve, grid_search_solve])
def test_an_empty_user_list_raises_the_same_error_in_every_solver(solve):
    with pytest.raises(ContractError, match="at least one user is required"):
        solve([], 10.0)


# ---------------------------------------------------------------------------
# grid search


@pytest.mark.parametrize("step", [0.0, -0.01, math.inf, math.nan])
def test_grid_rejects_a_step_that_is_not_positive_and_finite(cell, step):
    with pytest.raises(DomainError, match="step must be positive"):
        grid_search_solve(cell.users[:1], 10.0, step)


def test_grid_refuses_large_instances(cell):
    with pytest.raises(ContractError):
        grid_search_solve(cell.users, 60.0)  # 8 applications


def test_grid_refuses_a_grid_past_its_bound_before_any_objective_call(monkeypatch):
    # Two users, three apps: at R = 200 and step 0.01 the grid has
    # 20001 * 20002 / 2 points, minutes of enumeration if it were not refused;
    # the count stops at the first first-row value that takes it past 10^6.
    users = [
        _user("a", UserClass.REGULAR, [_app(LogarithmicUtility(k=2.0, r_max=30.0), 0.5),
                                       _app(SigmoidalUtility(a=1.0, b=6.0), 0.5)]),
        _user("b", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)]),
    ]

    def called(rows, rates):
        raise AssertionError("the grid was enumerated")

    monkeypatch.setattr(oracle, "objective", called)
    refused = r"guarded to 1000000 points, got at least 1018776 at step 0\.01"
    with pytest.raises(ContractError, match=refused):
        grid_search_solve(users, 200.0, step=0.01)


def test_grid_bound_counts_the_objective_calls_exactly(monkeypatch):
    # Two users, three apps at R = 2 and step 0.1: the first row takes 21
    # values and the second what the first leaves, 21 * 22 / 2 = 231 points
    # in all, though the product of their counts is 21^2 = 441.
    users = [
        _user("a", UserClass.REGULAR, [_app(LogarithmicUtility(k=2.0, r_max=30.0), 0.5),
                                       _app(SigmoidalUtility(a=1.0, b=6.0), 0.5)]),
        _user("b", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)]),
    ]
    calls = []

    def counted(rows, rates):
        calls.append(tuple(rates))
        return objective(rows, rates)

    monkeypatch.setattr(oracle, "objective", counted)
    monkeypatch.setattr(oracle, "_MAX_GRID_POINTS", 231)
    grid = grid_search_solve(users, 2.0, step=0.1)
    assert len(calls) == 231 and len(set(calls)) == 231
    assert grid.user_rates == pytest.approx(centralized_solve(users, 2.0).user_rates, abs=0.1)
    calls.clear()
    monkeypatch.setattr(oracle, "_MAX_GRID_POINTS", 230)
    refused = r"guarded to 230 points, got at least 231 at step 0\.1$"
    with pytest.raises(ContractError, match=refused):
        grid_search_solve(users, 2.0, step=0.1)
    assert calls == []


def test_grid_refusal_stops_counting_past_the_bound(monkeypatch):
    # A zero-weight second row takes one value, so each of the first row's
    # 10^9 values at R = 1 and step 1e-9 adds one point: the count must stop
    # at the bound's 1001st point, not walk them all.
    users = [
        _user("a", UserClass.REGULAR, [_app(LOG_UNIT, 1.0), _app(LOG_UNIT, 0.0)]),
        _user("b", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)]),
    ]
    reads = []

    class Limits(tuple):
        def __getitem__(self, j):
            reads.append(j)
            if len(reads) > 2000:
                raise AssertionError("the count walked on past the bound")
            return tuple.__getitem__(self, j)

    def counted_table(users, capacity):
        table = regime_table(users, capacity)
        object.__setattr__(table, "limits", Limits(table.limits))
        return table

    monkeypatch.setattr(oracle, "regime_table", counted_table)
    monkeypatch.setattr(oracle, "_MAX_GRID_POINTS", 1000)
    with pytest.raises(ContractError, match=r"guarded to 1000 points, got at least 1001 at"):
        grid_search_solve(users, 1.0, step=1e-9)
    assert reads.count(1) == 1001 and len(reads) == 1002


def test_a_price_search_out_of_steps_raises_with_its_bracket(cell, monkeypatch):
    # The reference cell at R = 100 clears in two steps of the bracketed
    # search; one step leaves a bracket that holds the pipeline's price.
    final_price = run_first_stage(cell.users, 100.0).final_price
    monkeypatch.setattr(oracle, "_MAX_PRICE_STEPS", 1)
    with pytest.raises(SolverError, match="did not close") as raised:
        centralized_solve(cell.users, 100.0)
    lo, hi = raised.value.bracket
    assert str(raised.value) == f"price bracket ({lo}, {hi}) did not close"
    assert lo < final_price < hi


def test_grid_zero_weight_tie_prefers_smallest():
    user = _user(
        "flat",
        UserClass.REGULAR,
        [_app(LOG_UNIT, 0.0), _app(LogarithmicUtility(k=2.0, r_max=9.0), 0.0)],
    )
    result = grid_search_solve([user], 3.0)
    assert result.app_rates["flat"] == (0.0, 0.0)


def test_grid_single_app_takes_exact_capacity():
    user = _user("solo", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)])
    result = grid_search_solve([user], 4.0)
    assert result.user_rates["solo"] == pytest.approx(4.0, abs=1e-12)


def test_grid_respects_target_caps_when_scarce():
    vip = _user(
        "v",
        UserClass.VIP,
        [_app(LOG_UNIT, 0.6, target=2.0), _app(LogarithmicUtility(k=3.0, r_max=15.0), 0.4, target=6.0)],
    )
    result = grid_search_solve([vip], 5.0, step=0.01)
    sig_rate, log_rate = result.app_rates["v"]
    assert sig_rate <= 2.0 + 1e-12
    assert log_rate <= 6.0 + 1e-12
    assert sig_rate + log_rate == pytest.approx(5.0, abs=0.02)


@pytest.mark.parametrize("capacity", [3.0, 6.0])
def test_dual_and_grid_agree_two_apps(capacity):
    users = [
        _user("a", UserClass.REGULAR, [_app(LogarithmicUtility(k=2.0, r_max=30.0), 1.0)]),
        _user("b", UserClass.REGULAR, [_app(SigmoidalUtility(a=1.5, b=2.0), 1.0)]),
    ]
    dual = centralized_solve(users, capacity)
    grid = grid_search_solve(users, capacity, step=0.01)
    for uid in dual.user_rates:
        assert dual.user_rates[uid] == pytest.approx(grid.user_rates[uid], abs=0.02)
    assert grid.objective <= dual.objective + 1e-6


def test_dual_and_grid_agree_three_apps_with_vip():
    users = [
        _user(
            "vip",
            UserClass.VIP,
            [_app(SigmoidalUtility(a=2.0, b=5.0), 0.7, target=3.0)],
        ),
        _user(
            "reg",
            UserClass.REGULAR,
            [_app(LogarithmicUtility(k=1.0, r_max=20.0), 0.5),
             _app(SigmoidalUtility(a=1.0, b=6.0), 0.5)],
        ),
    ]
    dual = centralized_solve(users, 8.0)
    grid = grid_search_solve(users, 8.0, step=0.01)
    for uid in dual.user_rates:
        assert dual.user_rates[uid] == pytest.approx(grid.user_rates[uid], abs=0.05)
    assert grid.objective <= dual.objective + 1e-6


def test_objective_reported_consistently(cell):
    from nura.utility import NEG_INF

    result = centralized_solve(cell.users, 150.0)
    total = 0.0
    for user in cell.users:
        for app, rate in zip(user.apps, result.app_rates[user.user_id]):
            if app.weight == 0.0:
                continue
            value = app.utility.log_evaluate(rate)
            assert value > NEG_INF
            total += user.beta * app.weight * value
    assert result.objective == pytest.approx(total, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("capacity, case", [(40.0, CaseFlag.TARGETS_EXCEED_CAPACITY),
                                            (150.0, CaseFlag.TARGETS_BELOW_CAPACITY)])
def test_the_objective_is_computed_on_first_read_and_kept(cell, capacity, case, monkeypatch):
    # Neither the CLI nor the benchmark reads it, so the solve leaves it to the first read.
    calls = []

    def counted(rows, rates):
        calls.append(capacity)
        return objective(rows, rates)

    monkeypatch.setattr(oracle, "objective", counted)
    result = centralized_solve(cell.users, capacity)
    assert calls == []
    first = result.objective
    assert calls == [capacity]
    assert result.objective == first and calls == [capacity]
    assert regime_table(cell.users, capacity).case is case


@pytest.mark.parametrize("capacity", [40.0, 150.0])  # scarce, abundant
def test_a_replaced_result_keeps_its_objective(cell, capacity):
    # The copy raised TypeError on reading it, its rows and rates lost.
    result = centralized_solve(cell.users, capacity)
    copy = replace(result, method="x")
    assert copy.objective == result.objective
    assert "rows" not in repr(copy) and replace(copy, rows=(), rates=()) == copy  # not compared


def test_methods_labelled():
    user = _user("solo", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)])
    assert centralized_solve([user], 2.0).method == "dual_bisection"
    assert grid_search_solve([user], 2.0).method == "grid_search"


def _count_derivative_calls(monkeypatch) -> list[int]:
    """A one-item list counting dlog_evaluate calls on both curve kinds."""
    calls = [0]
    for cls in (SigmoidalUtility, LogarithmicUtility):
        def counted(self, rate, original=cls.dlog_evaluate):
            calls[0] += 1
            return original(self, rate)

        monkeypatch.setattr(cls, "dlog_evaluate", counted)
    return calls


def _distinct_rows(config) -> int:
    """The rows of the config's regime table, rows equal in application,
    beta, offset and limit counted once."""
    table = regime_table(config.users, config.capacity)
    return len({(row.app, table.participants[row.user_slot].beta, row.offset, limit)
                for row, limit in zip(table.rows, table.limits)})


def _certify_counting(configs, monkeypatch) -> list:
    """Each config's certification: its dlog_evaluate calls, checked to be
    at most one per distinct row, or the name of the NuraError it raised."""
    calls = _count_derivative_calls(monkeypatch)
    outcomes = []
    for config in configs:
        before = calls[0]
        try:
            centralized_solve(config.users, config.capacity)
        except NuraError as exc:
            outcomes.append(type(exc).__name__)
            continue
        outcomes.append(calls[0] - before)
        assert outcomes[-1] <= _distinct_rows(config), config.capacity
    return outcomes


def test_certifying_the_reference_sweep_takes_few_derivative_calls(cell, monkeypatch):
    """Certifying the 40 sweep points and the 3 schedule epochs at R = 200
    reads a distinct row's exit price, with one dlog_evaluate call, only
    once a price trial finds the row at its limit, once per solve: 24
    calls, where reading every row's exit before the search took 242 and
    the oracle's own row searches 5751."""
    configs = [replace(cell, capacity=5.0 * i) for i in range(1, 41)] + [
        scenario._apply_weights(cell, epoch)
        for epoch in load_schedule(bundled_schedule_path()).epochs
    ]
    assert sum(_certify_counting(configs, monkeypatch)) <= 24


@pytest.mark.parametrize("capacity", [25.0, 40.0])
def test_certifying_a_cell_whose_roots_hug_their_brackets_takes_few_derivative_calls(
        cell, capacity, monkeypatch):
    """At R = 25 ue1's sigmoid row searched [19.858533752246814, 20] for a
    root 8.2e-12 above its lower end, and at R = 40 ue2's log row restarted
    from 0 when a carried end 1.8e-13 above its root failed its sign test:
    the oracle's own row searches took 588 and 560 calls, and 332 and 325
    once they stepped past the end and carried the bracket. Reading each
    row's closed-form demand, they take at most one per distinct row: 2
    each, for the two rows a price trial finds at their limit."""
    [calls] = _certify_counting([replace(cell, capacity=capacity)], monkeypatch)
    assert isinstance(calls, int)  # solved


def test_certifying_wide_range_trees_takes_few_derivative_calls(monkeypatch):
    """Certifying the 400 trees drawn at s = 300 (tests/wide_trees.py),
    whose demands span hundreds of decades of rate, takes one
    dlog_evaluate call per distinct row and keeps each tree's outcome
    class: solved, or a typed error. The oracle's own row searches took
    20315 calls for 167 solved and 66 SolverError. Reading the closed-form
    demand, draws 16, 35, 148 and 366 solve, and draws 50, 110, 186, 297
    and 339 raise the SolverError of a price / beta that underflows to 0;
    every answer passes tests/referee.py."""
    rng = random.Random(1)
    outcomes = Counter()
    configs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(400):
            try:
                configs.append(scenario.scenario_from_dict(wide_tree(rng, 300)))
            except NuraError as exc:
                outcomes[type(exc).__name__] += 1
    outcomes.update(outcome if isinstance(outcome, str) else "solved"
                    for outcome in _certify_counting(configs, monkeypatch))
    assert outcomes == {"solved": 166, "SolverError": 67, "ValidationError": 167}


def test_certifying_the_benchmark_large_cell_takes_few_derivative_calls(monkeypatch):
    """Certifying the benchmark's large_cell, 64 jittered users at
    R = 3200 with no curve shared between users, costs few price trials
    (7) and no dlog_evaluate call: no row reaches its limit, the budget,
    so no exit price is read (128 calls reading every row's exit before
    the search; the oracle's own row searches took 3169)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import cells

    config = scenario.scenario_from_dict(cells.large_tree(7))
    assert _price_trials(config, monkeypatch) <= 7
    assert _certify_counting([config], monkeypatch) == [0]


def test_a_scarce_row_held_at_its_limit_reads_its_exit_and_jumps_to_it(cell, monkeypatch):
    """At R = 5 capacity is scarce and the first price trial, p = 1, holds
    ue1's sigmoid row at its limit, the budget 5. The clearing reads that
    row's exit price there, the one dlog_evaluate call of the solve, jumps
    to it as its next trial, and its answer passes tests/referee.py."""
    app = cell.users[0].apps[0]
    assert isinstance(app.utility, SigmoidalUtility) and cell.users[0].beta == 1.0
    leave = app.weight * app.utility.dlog_evaluate(5.0)
    calls = _count_derivative_calls(monkeypatch)
    prices = []

    def traced(demand, *rest, original=oracle._clear):
        def tried(price):
            prices.append(price)
            return demand(price)

        return original(tried, *rest)

    monkeypatch.setattr(oracle, "_clear", traced)
    result = centralized_solve(cell.users, 5.0)
    assert calls == [1]
    assert prices[:2] == [1.0, leave]
    assert kkt_gap(replace(cell, capacity=5.0), result.app_rates) == 0.0


def test_the_benchmark_large_cell_meets_one_marginal_value_to_rounding(monkeypatch):
    """Every row of large_cell strictly inside its limits, give or take the
    clearing tolerance, meets one price in marginal value: a spread of
    1.8e-14 reading the closed-form demand, 3.1e-14 where the oracle's own
    row searches took the secant root of their final bracket and 3.9e-11
    where they took its midpoint."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import cells

    config = scenario.scenario_from_dict(cells.large_tree(7))
    assert config.capacity == 3200.0
    result = centralized_solve(config.users, config.capacity)
    table = regime_table(config.users, config.capacity)
    tol = 1e-9 * table.budget
    finals = [rate for user in table.participants for rate in result.app_rates[user.user_id]]
    marginals = [math.log(row.factor * row.app.utility.dlog_evaluate(final))
                 for row, limit, final in zip(table.rows, table.limits, finals)
                 if tol < final - row.offset < limit - tol]
    assert len(marginals) > 64
    assert max(marginals) - min(marginals) <= 1e-12


@pytest.mark.parametrize("capacity", [30.0, 120.0])
def test_users_equal_but_for_their_ids_get_equal_bits(cell, capacity):
    twin = replace(cell.users[0], user_id="twin")
    result = centralized_solve([*cell.users, twin], capacity)
    assert result.user_rates["twin"].hex() == result.user_rates["ue1"].hex()
    assert [r.hex() for r in result.app_rates["twin"]] == [
        r.hex() for r in result.app_rates["ue1"]]


def test_each_price_trial_searches_each_distinct_row_once(cell, monkeypatch):
    """Above the targets, ue3's and ue4's rows sit on ue1's and ue2's
    curves (same utility, weight and beta): their log rows equal ue1's and
    ue2's, their sigmoid rows differ only in offset. Each price trial of the
    one clearing reads each curve once: 4 closed-form demands for 8 rows."""
    assert len(regime_table(cell.users, 100.0).rows) == 8
    read = Counter()
    for cls in (SigmoidalUtility, LogarithmicUtility):
        def curve(self, weight, original=cls.demand_curve):
            demand = original(self, weight)

            def counted(price):
                read[price] += 1
                return demand(price)
            return counted

        monkeypatch.setattr(cls, "demand_curve", curve)
    users = [replace(user, apps=tuple(replace(app) for app in user.apps)) for user in cell.users]
    centralized_solve(users, 100.0)
    assert len(read) > 1 and set(read.values()) == {4}


def _price_trials(config, monkeypatch) -> int:
    """Distinct prices over all of centralized_solve's clearings, as their
    demand callbacks are asked for them."""
    prices = set()

    def counted(demand, *rest, original=oracle._clear):
        def tried(price):
            prices.add(price)
            return demand(price)

        return original(tried, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_clear", counted)
        centralized_solve(config.users, config.capacity)
    return len(prices)


def test_the_reference_cell_clears_in_few_price_trials(cell, monkeypatch):
    """At R = 100 to 200 and in the three schedule epochs each cell tries
    at most 9 prices, as with secant steps in ln p alone; at R = 200
    Illinois steps on total - budget, after steps out by 2, 4, 16, ...,
    tried 14."""
    configs = [replace(cell, capacity=5.0 * i) for i in range(20, 41)] + [
        scenario._apply_weights(cell, epoch)
        for epoch in load_schedule(bundled_schedule_path()).epochs
    ]
    for config in configs:
        assert _price_trials(config, monkeypatch) <= 9, config.capacity


def test_the_reference_sweep_tries_few_prices(cell, monkeypatch):
    """The benchmark's ref_sweep cells tried 215 distinct prices in all at
    R = 5 to 50, where both VIPs are capped and sigmoid rows sit at their
    limits, and 292 at R = 55 to 200 and in the three epochs. With rows at
    their limit handing the search their exit prices, splits starting from
    their nearest trial at their own reach, plateaus taken only where the
    step lands next to them and interpolation through three trials, they
    try 121 and 249."""
    configs = [replace(cell, capacity=5.0 * i) for i in range(1, 41)] + [
        scenario._apply_weights(cell, epoch)
        for epoch in load_schedule(bundled_schedule_path()).epochs
    ]
    trials = [_price_trials(config, monkeypatch) for config in configs]
    assert sum(trials[:10]) <= 121
    assert sum(trials[10:]) <= 249


@pytest.mark.parametrize("capacity, before", [(10.0, 26), (15.0, 37), (60.0, 15), (65.0, 14)])
def test_a_cell_clearing_next_to_a_plateau_price_takes_few_price_trials(
        cell, capacity, before, monkeypatch):
    """These cells clear within 1e-7 of a sigmoid's plateau price (1.5 or
    0.9), where that demand crosses its flat stretch: stepping in ln p
    alone they took 117, 121, 50 and 55 price trials, and stepping in s
    around the plateau 24, 35, 13 and 12, held to `before`; jumping to the
    exit of the row at its limit there and interpolating the total, linear
    in s, they take 8, 8, 7 and 6."""
    most = {10.0: 8, 15.0: 8, 60.0: 7, 65.0: 6}[capacity]
    trials = _price_trials(replace(cell, capacity=capacity), monkeypatch)
    assert trials <= most, (trials, before)


def test_certifying_256_jittered_users_takes_few_price_trials(monkeypatch):
    """The benchmark's large_tree(7, users=256) at R = 3200: each sigmoid
    row has a plateau price of its own, so the first bracket holds dozens.
    Taking the plateau nearest the last trial crept across them one phase
    at a time, in 59 price trials; taking the one nearest where the secant
    step in ln p lands takes 15."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import cells

    config = scenario.scenario_from_dict(cells.large_tree(7, users=256))
    assert _price_trials(config, monkeypatch) <= 16


def test_equal_capped_users_with_equal_shares_split_once(cell, monkeypatch):
    """At R = 800, 16 copies of the reference users sit at the scarce
    boundary: all 32 VIPs are capped, and the copies of ue1 and of ue2
    get equal shares, so 2 splits follow the one clearing, not 32."""
    users = [replace(user, user_id=f"{user.user_id}-{copy}")
             for copy in range(16) for user in cell.users]
    budgets = []

    def counted(demand, budget, plateaus, *start, original=oracle._clear):
        budgets.append(budget)
        return original(demand, budget, plateaus, *start)

    monkeypatch.setattr(oracle, "_clear", counted)
    result = centralized_solve(users, 800.0)
    assert len(budgets) == 3
    for copy in range(1, 16):
        for uid in ("ue1", "ue2"):
            assert result.app_rates[f"{uid}-{copy}"] == result.app_rates[f"{uid}-0"]


def test_splits_start_from_the_clearing_in_few_price_trials(cell, monkeypatch):
    """At R = 5, 10, ..., 50 the global clearings take 65 price trials for
    the 10 cells. Only the users they cap are split, each from the global
    clearing's upper end stepping by e^{4|g|} there: ue1 at R = 25 to 50
    and ue2 at R = 50, 7 trials each, 49 in all. Splitting every VIP with
    a share as well, also those below their caps, each from the global
    trial where its rows came nearest its share, took 77. A split's first
    trial repeats a global price, so demand calls are counted, not
    distinct prices."""
    clearings = [_demand_calls(replace(cell, capacity=5.0 * i), monkeypatch)
                 for i in range(1, 11)]
    assert sum(calls[0] for calls in clearings) <= 65
    assert sum(sum(calls[1:]) for calls in clearings) <= 49


def _demand_calls(config, monkeypatch) -> list[int]:
    """Demand calls of each of centralized_solve's clearings, in order:
    the global one, then each capped user's split."""
    trials = []

    def counted(demand, budget, *rest, original=oracle._clear):
        trials.append(0)

        def tried(*args):
            trials[-1] += 1
            return demand(*args)

        return original(tried, budget, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_clear", counted)
        centralized_solve(config.users, config.capacity)
    return trials


def test_a_clearing_whose_total_sits_on_a_clipped_row_jumps_to_its_exit(cell, monkeypatch):
    """At R = 5 ue1's sigmoid row holds its limit, the budget, up to 4.6e-7
    above its plateau price 1.5, and the global clearing tried 1.5 -
    1.8e-6, 1.5 - 6.9e-9 and 1.5 + 1.6e-9 at one total, 11 trials in all;
    at R = 50 ue2's split (share 30) stepped across its sigmoid row held at
    30 from p = 1 down to 0.0064 and crept back up to its exit near 0.45,
    16 trials. Jumping to the exit, they take 7 each."""
    assert _demand_calls(replace(cell, capacity=5.0), monkeypatch)[0] <= 8
    assert _demand_calls(replace(cell, capacity=50.0), monkeypatch)[2] <= 8


def test_users_below_their_caps_keep_the_clearings_rows_unsplit(cell, monkeypatch):
    """At R = 15 both VIPs sit below their caps (ue1 14.018 of 20, ue2
    0.982 of 30), so their caps' multipliers are 0 and their rows keep
    the global clearing's price: one clearing and no split. Each used to
    be split again on its own rows."""
    table = regime_table(cell.users, 15.0)
    result = centralized_solve(cell.users, 15.0)
    for user, cap in zip(table.participants, table.user_caps):
        assert result.user_rates[user.user_id] < cap
    assert len(_demand_calls(replace(cell, capacity=15.0), monkeypatch)) == 1


@pytest.mark.parametrize("capacity", [25.0, 30.0, 35.0, 40.0, 45.0])
def test_a_split_far_from_a_plateau_in_its_bracket_keeps_away_from_it(
        cell, capacity, monkeypatch):
    """ue1's splits here have their root near 1.094 and the plateau price
    1.5 in their bracket: entering s as soon as the bracket held 1.5 tried
    1.5 itself, 10 trials each. The steps take s only where the step in
    ln p lands nearer the plateau than it started, and take at most 7."""
    assert _demand_calls(replace(cell, capacity=capacity), monkeypatch)[1] <= 7


def _water_fill(weights, limits, budget):
    """Exact amounts min(w / p, limit) summing to budget, and that p."""
    clipped = set()
    while True:
        free = sum(w for i, w in enumerate(weights) if i not in clipped)
        price = free / (budget - sum(limits[i] for i in clipped))
        over = {i for i, (w, limit) in enumerate(zip(weights, limits)) if w / price > limit}
        if over <= clipped:
            return [min(w / price, limit) for w, limit in zip(weights, limits)], price
        clipped |= over


# Plateaus (p0, w) that no row of the demand has, at the given price and
# at both ends of the float price range: they may cost trials only.
def _wrong_plateaus(price):
    ends = [(sys.float_info.max, 2.0 * math.ulp(sys.float_info.max)),
            (math.ulp(0.0), 2.0 * math.ulp(0.0))]
    return [[(price, 2.0 * math.ulp(price))], [(price * (1.0 + 1e-7), 1e-9 * price)],
            [(0.5 * price, 0.1 * price), (3.0 * price, 1e-3 * price)], ends]


def _exits(weights, limits, price):
    """(w / limit, limit) for each amount w / p clipped at its limit."""
    return [(w / limit, limit) for w, limit in zip(weights, limits) if w / price > limit]


def test_a_closed_form_demand_clipped_at_a_tiny_budget_clears_in_few_trials():
    """Amounts w / p clipped at a budget of 3e-5: while rows sit at their
    limit the total is flat, and the steps out by 2, 4, 16, ... took 14
    trials to cross them; jumping to the highest exit below which the
    rows still clipped hold the budget takes 4."""
    weights, budget = [1e-3, 5.0, 7.0, 0.2], 3e-5
    limits = [budget] * len(weights)
    calls = []

    def demand(price):
        calls.append(price)
        amounts = [min(w / price, limit) for w, limit in zip(weights, limits)]
        return amounts, _exits(weights, limits, price)

    got = oracle._clear(demand, budget)[0]
    assert got == pytest.approx(_water_fill(weights, limits, budget)[0], abs=1e-9 * budget)
    assert len(calls) <= 6


def test_clearing_a_closed_form_demand_meets_the_exact_amounts():
    """Amounts w / p, clipped at the budget or at a tighter limit, clear
    within 1e-9 * budget of the water-filled exact amounts, whether the
    search stops at its lower end (total above the budget) or at its
    upper end, and whatever plateaus it is given: none, or wrong ones at
    the clearing price, around it and at the ends of the price range."""
    stops = set()
    for weights in ([1.0, 2.0, 3.0], [0.5, 0.25], [1e-3, 5.0, 7.0, 0.2]):
        rest = len(weights) - 1
        for budget in (3e-5, 0.01, 1.0, 7.0, 100.0, 1e6):
            for limits in ([budget] * (rest + 1), [0.1 * budget] + [budget] * rest):
                want, root = _water_fill(weights, limits, budget)
                for plateaus in [[], *_wrong_plateaus(root)]:
                    totals = []

                    def demand(price):
                        amounts = [min(w / price, limit) for w, limit in zip(weights, limits)]
                        totals.append(add_up(amounts))
                        return amounts, _exits(weights, limits, price)

                    got = oracle._clear(demand, budget, plateaus)[0]
                    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * budget
                    near = [total for total in totals if abs(total - budget) <= 0.5e-9 * budget]
                    stops.update("lower" if total > budget else "upper" for total in near)
    assert stops == {"lower", "upper"}


def test_a_warm_start_next_to_the_root_steps_out_by_its_own_reach():
    """Amounts w / p started 1e-8 short of the budget: from a given start
    price (a warm start, as a split's from the global clearing is) the
    first step out is e^{4|g|}, since such a start often lies next to the
    root; cold, from p = 1, it is a factor of 2. At ref_sweep R = 15 a
    split started 1.1e-8 below the plateau price 1.5 took 17 trials
    stepping out by 2 and 2 stepping out by e^{4|g|}. Either way these
    amounts, g linear in ln p, clear in 3 trials within 1e-9 * budget of
    the exact ones."""
    weights = [1.0, 2.0, 3.0]
    g = math.log1p(-1e-8)
    for start, first_step in ((1.0 / (1.0 - 1e-8), 4.0 * abs(g)), (None, math.log(2.0))):
        # The root lies 1e-8 below the first price in ln p either way.
        budget = 6.0 / (1.0 - 1e-8) if start is None else 6.0
        want = _water_fill(weights, [budget] * 3, budget)[0]
        prices = []

        def demand(price):
            prices.append(price)
            amounts = [w / price for w in weights]
            return amounts, []

        got = oracle._clear(demand, budget, (), start)[0]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * budget
        assert math.log(prices[0] / prices[1]) == pytest.approx(first_step, rel=1e-6)
        assert len(prices) <= 3


@pytest.mark.parametrize("off", [1e-10, 1e-8, -1e-10, -1e-8])
def test_a_total_near_the_budget_at_the_end_of_the_price_range_clears_there(off):
    """A total that never meets the budget but is within 5e-10 * budget
    of it at the highest (lowest) float price clears there; one further
    off raises, as it did at any distance. Wrong plateaus change neither."""
    budget, near = 2.0, 2.0 * (1.0 + off)

    def demand(price):
        amounts = [near, 1.0 / price] if off > 0.0 else [min(1.0 / price, near)]
        return amounts, []

    for plateaus in [[], *_wrong_plateaus(1.0)]:
        if abs(off) < 5e-10:
            got = sum(oracle._clear(demand, budget, plateaus)[0])
            assert got == pytest.approx(budget, rel=1e-9)
        else:
            with pytest.raises(SolverError, match="above" if off > 0.0 else "below"):
                oracle._clear(demand, budget, plateaus)


@pytest.mark.parametrize("capacity, offsets_and_limits", [
    (25.0, {(0.0, 10.0), (0.0, 20.0)}),  # scarce: capped at the targets
    (100.0, {(10.0, 70.0), (20.0, 70.0)}),  # abundant: above the targets
])
def test_rows_differing_only_in_offset_or_limit_are_searched_apart(
        capacity, offsets_and_limits):
    """Two VIPs with the same log curve and weight, targets 10 and 20.
    Scarce (R = 25), a's row is capped at 10 and b takes the other 15;
    abundant (R = 100), each row meets the price at the same final rate,
    50, from offsets 10 and 20. A row read in place of the other would
    give both the same rate above its offset."""
    users = [_user(uid, UserClass.VIP, [_app(LOG_UNIT, 1.0, target)])
             for uid, target in (("a", 10.0), ("b", 20.0))]
    table = regime_table(users, capacity)
    assert {(row.offset, limit) for row, limit in zip(table.rows, table.limits)} == (
        offsets_and_limits)
    result = centralized_solve(users, capacity)
    want = {25.0: (10.0, 15.0), 100.0: (50.0, 50.0)}[capacity]
    assert (result.app_rates["a"][0], result.app_rates["b"][0]) == pytest.approx(want, rel=1e-9)


def test_oracle_imports_only_errors_and_utility():
    # The reference solver shares the problem statement in utility with
    # the pipeline (the regime table, the objective, the plateaus) and each
    # application's closed-form demand, Application.demand_at, but none of
    # the pipeline's clearing code. Nor does it use the slope of the
    # pipeline's Newton steps, or build demands of its own. The answer's
    # independence rests on tests/referee.py, which checks every answer of
    # both solvers against the KKT conditions in mpmath.
    barred = {"dlog_slope", "rate_at_marginal", "demand_curve"}
    path = Path(__file__).resolve().parents[1] / "src" / "nura" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not (isinstance(node, ast.Attribute) and node.attr in barred)
        assert not (isinstance(node, ast.Name) and node.id in barred)
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nura":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "nura")
    assert imported == {"errors", "utility"}


# In a fresh interpreter: the package's certifier names resolve on first
# use, to the oracle's own objects, and star-import still binds them.
_LAZY_CERTIFIER = """
import sys
sys.path.insert(0, sys.argv[1])
import nura
assert "nura.oracle" not in sys.modules
from nura import OracleResult, centralized_solve, grid_search_solve
from nura import oracle
assert centralized_solve is oracle.centralized_solve
assert grid_search_solve is oracle.grid_search_solve
assert OracleResult is oracle.OracleResult
namespace = {}
exec("from nura import *", namespace)
assert set(nura.__all__) <= set(namespace), set(nura.__all__) - set(namespace)
assert not hasattr(nura, "no_such_name")
"""


def test_import_nura_leaves_the_certifier_unloaded_until_asked_for():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", _LAZY_CERTIFIER, str(src)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
