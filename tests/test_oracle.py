"""Centralized solvers: analytic points, grid cross-checks, tie rules."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from nura import (
    Application,
    ContractError,
    DomainError,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    centralized_solve,
    grid_search_solve,
)


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


# ---------------------------------------------------------------------------
# grid search


def test_grid_refuses_large_instances(cell):
    with pytest.raises(ContractError):
        grid_search_solve(cell.users, 60.0)  # 8 applications


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


def test_methods_labelled():
    user = _user("solo", UserClass.REGULAR, [_app(LOG_UNIT, 1.0)])
    assert centralized_solve([user], 2.0).method == "dual_bisection"
    assert grid_search_solve([user], 2.0).method == "grid_search"


def test_oracle_imports_only_errors_and_utility():
    # The reference solver may share the problem statement (the regime
    # table in utility) with the pipeline, but none of its demand code,
    # so a pipeline bug cannot certify itself.
    # Nor does it use the utility methods only the pipeline's demand
    # uses: the fused derivative kernel of its Newton steps and the
    # closed-form log demand.
    barred = {"dlog_and_slope", "rate_at_log_dlog"}
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
