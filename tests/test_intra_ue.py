"""One user's clearing against brute-force scans and optimality certificates,
and the second stage built on the first stage's clearing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nura import intra_ue
from nura import (
    Application,
    CaseFlag,
    DomainError,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    allocate_internal,
    app_rate_at_price,
    run_first_stage,
    run_once,
    scenario_from_dict,
)
from nura.intra_ue import clear_price
from nura.utility import NEG_INF, RegimeTable, add_up, app_rows, objective, regime_table

SCARCE = CaseFlag.TARGETS_EXCEED_CAPACITY
ABUNDANT = CaseFlag.TARGETS_BELOW_CAPACITY


def _ue1():
    return UserProfile(
        "ue1",
        UserClass.VIP,
        beta=1.0,
        apps=(
            Application(
                utility=SigmoidalUtility(a=3.0, b=20.0), weight=0.5, target_rate=20.0
            ),
            Application(utility=LogarithmicUtility(k=3.0, r_max=100.0), weight=0.5),
        ),
    )


def _split(user, budget, case, price=1.0):
    """Per-row rates above the offsets and the user's share from one
    clearing of budget among the user's applications, started at price."""
    table = RegimeTable(case, (user,), budget, (math.inf,), app_rows([user], case))
    _, shares, rates = clear_price(table, price)
    return rates, shares[0]


def test_zero_budget_yields_zero_rates(cell):
    # Regular users take no part under scarce capacity: rate 0, app rates 0.
    first = run_first_stage(cell.users, 30.0)
    for user in cell.users[2:]:
        assert first.rates[user.user_id] == 0.0
        assert allocate_internal(user, first) == (0.0, 0.0)


def test_abundant_exact_target_grants_offsets(cell):
    # Under abundant capacity every app rate includes its target; at
    # R = 100 ue2's sigmoid demands nothing above its target of 30.
    first = run_first_stage(cell.users, 100.0)
    for user in cell.users:
        for rate, app in zip(allocate_internal(user, first), user.apps):
            assert rate >= app.offset
    assert allocate_internal(cell.users[1], first)[0] == 30.0


def test_negative_budget_rejected():
    with pytest.raises(DomainError):
        run_first_stage([_ue1()], -1.0)


def _split_value(user, rates, case):
    """The objective of one user's split, rates above the offsets."""
    return objective(app_rows([user], case), rates)


def _scan_best(user, budget, case, step):
    """1-D exhaustive scan over two-app splits (amounts above offsets)."""
    best_x, best_value = 0.0, -math.inf
    n = int(budget / step)
    for i in range(n + 1):
        x = min(i * step, budget)
        value = _split_value(user, [x, budget - x], case)
        if value > best_value:
            best_x, best_value = x, value
    return best_x, best_value


def test_abundant_split_beats_exhaustive_scan():
    user = _ue1()
    extras, _ = _split(user, 40.0, ABUNDANT)
    assert sum(extras) == pytest.approx(40.0, rel=1e-9)
    assert min(extras) >= 0.0
    value = _split_value(user, extras, ABUNDANT)
    best_x, best_value = _scan_best(user, 40.0, ABUNDANT, step=0.002)
    assert value >= best_value - 1e-6
    assert extras[0] == pytest.approx(best_x, abs=0.05)


def test_scarce_split_beats_exhaustive_scan():
    user = _ue1()
    rates, _ = _split(user, 15.0, SCARCE)
    assert sum(rates) == pytest.approx(15.0, rel=1e-9)
    value = _split_value(user, rates, SCARCE)
    best_x, best_value = _scan_best(user, 15.0, SCARCE, step=0.002)
    assert value >= best_value - 1e-6
    assert rates[0] == pytest.approx(best_x, abs=0.05)


@pytest.mark.parametrize("budget, case", [(60.0, ABUNDANT), (15.0, SCARCE)])
def test_pairwise_transfer_certificate(budget, case):
    """Moving epsilon between any app pair must not improve the split."""
    user = _ue1()
    extras, _ = _split(user, budget - case.user_offset(user), case)
    base = _split_value(user, extras, case)
    eps = 0.01
    n = len(extras)
    for i in range(n):
        for j in range(n):
            if i == j or extras[i] < eps:
                continue
            trial = list(extras)
            trial[i] -= eps
            trial[j] += eps
            if trial[j] > case.app_cap(user.apps[j]):
                continue
            assert _split_value(user, trial, case) <= base + 1e-6


def _all_capped():
    return UserProfile(
        "v",
        UserClass.VIP,
        beta=1.0,
        apps=(
            Application(
                utility=LogarithmicUtility(k=1.0, r_max=10.0), weight=0.5, target_rate=2.0
            ),
            Application(
                utility=LogarithmicUtility(k=2.0, r_max=10.0), weight=0.5, target_rate=3.0
            ),
        ),
    )


def test_scarce_all_caps_saturated_leaves_slack():
    rates, share = _split(_all_capped(), 6.0, SCARCE)
    assert rates == [2.0, 3.0]
    assert 6.0 - share == pytest.approx(1.0, abs=1e-8)


def _saturating_sigmoids():
    # Two steep sigmoids past their inflection soak up little of a large
    # budget, so a Newton step from price 1 leaps toward a vanishing
    # price, where the light log app's demand has no finite bracket.
    return UserProfile(
        "s",
        UserClass.REGULAR,
        beta=1.0,
        apps=(
            Application(utility=SigmoidalUtility(a=10.0, b=60.0), weight=0.495),
            Application(utility=SigmoidalUtility(a=10.0, b=60.0), weight=0.495),
            Application(utility=LogarithmicUtility(k=0.1, r_max=20.0), weight=0.01),
        ),
    )


# (user, budget above the offsets, case): scarce with one app capped,
# scarce with every app capped and a leftover, abundant with room above
# the targets, and abundant far past two sigmoids.
_SPLITS = [
    (_ue1(), 15.0, SCARCE),
    (_all_capped(), 6.0, SCARCE),
    (_ue1(), 40.0, ABUNDANT),
    (_saturating_sigmoids(), 300.0, ABUNDANT),
]


@given(split=st.sampled_from(_SPLITS), log10_start=st.floats(-9.0, 9.0))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_split_start_price_matches_default(split, log10_start):
    user, budget, case = split
    cold, cold_share = _split(user, budget, case)
    warm, warm_share = _split(user, budget, case, 10.0**log10_start)
    tol_sum = 1e-9 * max(budget, 1.0)
    assert sum(warm) + budget - warm_share == pytest.approx(budget, abs=tol_sum)
    assert warm_share == pytest.approx(cold_share, abs=tol_sum)
    # both prices meet the budget within tol_sum and every app's demand
    # falls with the price, so no rate moves by more than both sums do,
    # plus the apps' own 1e-10 search tolerance
    for warm_rate, cold_rate in zip(warm, cold):
        assert warm_rate == pytest.approx(cold_rate, abs=2.0 * tol_sum + 1e-9)


def test_all_capped_slack_skips_to_the_price_floor(monkeypatch):
    # once every app sits at its cap no lower price can raise demand, so
    # the clearing returns the slack at its first trial (2 demand calls;
    # 82 when halving all the way down to a vanishing price)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return app_rate_at_price(*args, **kwargs)

    monkeypatch.setattr(intra_ue, "app_rate_at_price", counted)
    rates, _ = _split(_all_capped(), 6.0, SCARCE)
    assert rates == [2.0, 3.0]
    assert len(calls) <= 16


def test_split_conserves_budget_across_scales():
    user = _ue1()
    for budget in [21.0, 25.0, 33.3, 47.0, 80.0, 200.0]:
        extras, _ = _split(user, budget - 20.0, ABUNDANT)
        assert sum(extras) + 20.0 == pytest.approx(budget, rel=1e-9)
        assert min(extras) >= 0.0  # the target floor


# ---------------------------------------------------------------------------
# the second stage on the first stage's clearing


def test_uncapped_users_take_the_clearings_rows_without_a_demand_call(cell, monkeypatch):
    first = run_first_stage(cell.users, 100.0)
    calls = []
    monkeypatch.setattr(intra_ue, "app_rate_at_price", lambda *args: calls.append(args))
    for user in cell.users:
        assert allocate_internal(user, first) == first.app_rates[user.user_id]
    assert calls == []


def test_a_binding_cap_is_split_again_to_the_users_rate(cell):
    # At R = 30 ue1's demand at the final price, its rows of a clearing
    # from there, passes its cap of 20 (its sigmoid's target), so the
    # first stage clears its own rows again to split its rate.
    first = run_first_stage(cell.users, 30.0)
    table = regime_table(cell.users, 30.0)
    _, _, row_rates = clear_price(table, first.final_price)
    demands = [rate for row, rate in zip(table.rows, row_rates) if row.user_slot == 0]
    rate = first.rates["ue1"]
    assert rate == 20.0 and sum(demands) > rate + 0.1
    rates = first.app_rates["ue1"]
    assert sum(rates) == pytest.approx(rate, rel=1e-9, abs=0)
    assert rates[0] <= 20.0


def _sigmoid(a, b):
    return {"kind": "sigmoidal", "a": a, "b": b}


def _log(k, r_max):
    return {"kind": "logarithmic", "k": k, "r_max": r_max}


# Two cells of the benchmark's fuzz draws (seed 3 cell 109, seed 11 cell
# 104) whose clearing ends with a jump top-up: u0 of the first and u2 of
# the second are capped only at the bracket's lower price, so their rows
# are topped up past their rate (by 0.1% and 18%) but stay below their cap.
_TOP_UP_CELLS = [
    {"R": 48.54921549852299, "users": [
        {"id": "u0", "class": "vip", "beta": 0.5, "apps": [
            {"utility": _sigmoid(0.1, 33.192311169258545), "weight": 0.2466547381950135},
            {"utility": _sigmoid(10, 52.36484494473473), "weight": 0.7533452618049865,
             "target_rate": 29.60640008433038}]},
        {"id": "u1", "class": "vip", "beta": 0.5, "apps": [
            {"utility": _sigmoid(10, 47.90789427605506), "weight": 1.0,
             "target_rate": 26.26836343954595}]},
        {"id": "u2", "class": "vip", "beta": 5, "apps": [
            {"utility": _log(0.5, 181.25138474264196), "weight": 1.0,
             "target_rate": 2.565677841418999}]}]},
    {"R": 66.61604170811205, "users": [
        {"id": "u0", "class": "vip", "beta": 5, "apps": [
            {"utility": _sigmoid(3, 42.367789428433746), "weight": 0.5744317664648256},
            {"utility": _log(3, 149.11550102290082), "weight": 0.42556823353517437,
             "target_rate": 22.75043123444579}]},
        {"id": "u1", "class": "regular", "beta": 1, "apps": [
            {"utility": _log(0.5, 34.83854421487623), "weight": 1.0}]},
        {"id": "u2", "class": "vip", "beta": 5, "apps": [
            {"utility": _log(3, 66.54528869945779), "weight": 0.40054693901016325,
             "target_rate": 29.502972249549508},
            {"utility": _sigmoid(3, 41.22195919957128), "weight": 0.012210281383504393},
            {"utility": _log(1, 32.32262145372419), "weight": 0.5872427796063323}]},
        {"id": "u3", "class": "vip", "beta": 5, "apps": [
            {"utility": _log(0.5, 102.47869127832203), "weight": 0.013714418882004427,
             "target_rate": 26.554577989115845},
            {"utility": _sigmoid(1, 37.857784655987714), "weight": 0.9862855811179956,
             "target_rate": 20.830454555890856}]},
        {"id": "u4", "class": "regular", "beta": 2, "apps": [
            {"utility": _sigmoid(1, 46.55221552689401), "weight": 0.8399616904771853},
            {"utility": _sigmoid(10, 31.39673921701017), "weight": 0.16003830952281475}]}]},
]


@pytest.mark.parametrize("tree", _TOP_UP_CELLS, ids=["fuzz_3_109", "fuzz_11_104"])
def test_rows_topped_up_past_a_rate_below_its_cap_are_split_again(tree):
    config = scenario_from_dict(tree)
    record = run_once(config)
    assert sum(record.user_rates.values()) == pytest.approx(config.capacity, rel=1e-9, abs=0)
    for uid, rate in record.user_rates.items():
        assert sum(record.app_rates[uid]) == pytest.approx(rate, rel=1e-9, abs=1e-12), uid


def test_every_participants_app_rates_add_up_to_its_rate(cell):
    cells = [(cell.users, 5.0 * i) for i in range(1, 41)]
    cells += [(c.users, c.capacity) for c in map(scenario_from_dict, _TOP_UP_CELLS)]
    for users, capacity in cells:
        first = run_first_stage(users, capacity)
        for uid, rate in first.rates.items():
            assert add_up(first.app_rates[uid]) == pytest.approx(rate, rel=1e-12, abs=0), uid


# ---------------------------------------------------------------------------
# the objective


def test_split_value_starved_weighted_app_is_sentinel():
    assert _split_value(_ue1(), [0.0, 1.0], SCARCE) == NEG_INF
    # abundant: the sigmoid app is evaluated at its 20.0 target instead
    assert _split_value(_ue1(), [0.0, 1.0], ABUNDANT) > NEG_INF
