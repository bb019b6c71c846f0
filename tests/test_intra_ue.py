"""Second-stage splits against brute-force scans and optimality certificates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nura import intra_ue
from nura import (
    Application,
    CaseFlag,
    ContractError,
    DomainError,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    allocate_internal,
    app_rate_at_price,
    split_value,
)
from nura.utility import NEG_INF

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


def test_zero_budget_yields_zero_rates():
    allocation = allocate_internal(_ue1(), 0.0, SCARCE)
    assert allocation.rates == (0.0, 0.0)
    assert allocation.slack == 0.0


def test_abundant_requires_target_coverage():
    with pytest.raises(ContractError):
        allocate_internal(_ue1(), 12.0, ABUNDANT)


def test_abundant_exact_target_grants_offsets():
    allocation = allocate_internal(_ue1(), 20.0, ABUNDANT)
    assert allocation.rates == (20.0, 0.0)
    assert allocation.slack == pytest.approx(0.0, abs=1e-9)


def test_negative_budget_rejected():
    with pytest.raises(DomainError):
        allocate_internal(_ue1(), -1.0, SCARCE)


def _scan_best(user, budget, case, step):
    """1-D exhaustive scan over two-app splits (amounts above offsets)."""
    best_x, best_value = 0.0, -math.inf
    n = int(budget / step)
    for i in range(n + 1):
        x = min(i * step, budget)
        value = split_value(user, [x, budget - x], case)
        if value > best_value:
            best_x, best_value = x, value
    return best_x, best_value


def test_abundant_split_beats_exhaustive_scan():
    user = _ue1()
    allocation = allocate_internal(user, 60.0, ABUNDANT)
    assert sum(allocation.rates) == pytest.approx(60.0, rel=1e-9)
    extras = [rate - app.offset for rate, app in zip(allocation.rates, user.apps)]
    assert min(extras) >= 0.0
    value = split_value(user, extras, ABUNDANT)
    best_x, best_value = _scan_best(user, 40.0, ABUNDANT, step=0.002)
    assert value >= best_value - 1e-6
    assert extras[0] == pytest.approx(best_x, abs=0.05)


def test_scarce_split_beats_exhaustive_scan():
    user = _ue1()
    allocation = allocate_internal(user, 15.0, SCARCE)
    assert sum(allocation.rates) == pytest.approx(15.0, rel=1e-9)
    value = split_value(user, allocation.rates, SCARCE)
    best_x, best_value = _scan_best(user, 15.0, SCARCE, step=0.002)
    assert value >= best_value - 1e-6
    assert allocation.rates[0] == pytest.approx(best_x, abs=0.05)


@pytest.mark.parametrize("budget, case", [(60.0, ABUNDANT), (15.0, SCARCE)])
def test_pairwise_transfer_certificate(budget, case):
    """Moving epsilon between any app pair must not improve the split."""
    user = _ue1()
    allocation = allocate_internal(user, budget, case)
    offsets = [0.0 if case is SCARCE else app.offset for app in user.apps]
    extras = [rate - off for rate, off in zip(allocation.rates, offsets)]
    base = split_value(user, extras, case)
    eps = 0.01
    n = len(extras)
    for i in range(n):
        for j in range(n):
            if i == j or extras[i] < eps:
                continue
            trial = list(extras)
            trial[i] -= eps
            trial[j] += eps
            if case is SCARCE:
                cap = user.apps[j].target_rate
                if cap is not None and trial[j] > cap:
                    continue
            assert split_value(user, trial, case) <= base + 1e-6


def test_scarce_all_caps_saturated_leaves_slack():
    user = UserProfile(
        "v",
        UserClass.VIP,
        beta=1.0,
        apps=(
            Application(
                utility=LogarithmicUtility(k=1.0, r_max=10.0),
                weight=0.5,
                target_rate=2.0,
            ),
            Application(
                utility=LogarithmicUtility(k=2.0, r_max=10.0),
                weight=0.5,
                target_rate=3.0,
            ),
        ),
    )
    allocation = allocate_internal(user, 6.0, SCARCE)
    assert allocation.rates == (2.0, 3.0)
    assert allocation.slack == pytest.approx(1.0, abs=1e-8)


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


# (user, budget, case): scarce with one app capped, scarce with every app
# capped and slack left, abundant with the budget exactly the targets,
# abundant with room above them, and abundant far past two sigmoids.
_SPLITS = [
    (_ue1(), 15.0, SCARCE),
    (_all_capped(), 6.0, SCARCE),
    (_ue1(), 20.0, ABUNDANT),
    (_ue1(), 60.0, ABUNDANT),
    (_saturating_sigmoids(), 300.0, ABUNDANT),
]


@given(split=st.sampled_from(_SPLITS), log10_start=st.floats(-9.0, 9.0))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_split_start_price_matches_default(split, log10_start):
    user, budget, case = split
    cold = allocate_internal(user, budget, case)
    warm = allocate_internal(user, budget, case, 10.0**log10_start)
    tol_sum = 1e-9 * max(budget, 1.0)
    assert sum(warm.rates) + warm.slack == pytest.approx(budget, abs=tol_sum)
    assert warm.slack == pytest.approx(cold.slack, abs=tol_sum)
    # both prices meet the budget within tol_sum and every app's demand
    # falls with the price, so no rate moves by more than both sums do,
    # plus the apps' own 1e-10 search tolerance
    for warm_rate, cold_rate in zip(warm.rates, cold.rates):
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
    allocation = allocate_internal(_all_capped(), 6.0, SCARCE)
    assert allocation.rates == (2.0, 3.0)
    assert len(calls) <= 16


def test_start_price_validation():
    for bad in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(DomainError):
            allocate_internal(_ue1(), 15.0, SCARCE, bad)


def test_all_zero_weights_degrade_with_warning():
    user = UserProfile(
        "z",
        UserClass.VIP,
        beta=1.0,
        apps=(
            Application(
                utility=LogarithmicUtility(k=1.0, r_max=10.0),
                weight=0.0,
                target_rate=4.0,
            ),
        ),
    )
    with pytest.warns(RuntimeWarning):
        allocation = allocate_internal(user, 5.0, ABUNDANT)
    assert allocation.rates == (4.0,)
    assert allocation.slack == pytest.approx(1.0, abs=1e-12)


def test_split_conserves_budget_across_scales():
    user = _ue1()
    for budget in [21.0, 25.0, 33.3, 47.0, 80.0, 200.0]:
        allocation = allocate_internal(user, budget, ABUNDANT)
        assert sum(allocation.rates) == pytest.approx(budget, rel=1e-9)
        assert allocation.rates[0] >= 20.0 - 1e-9  # target floor


# ---------------------------------------------------------------------------
# split_value contract


def test_split_value_rejects_negative_rate():
    with pytest.raises(ContractError):
        split_value(_ue1(), [-0.1, 1.0], SCARCE)


def test_split_value_rejects_rate_above_cap_when_scarce():
    with pytest.raises(ContractError):
        split_value(_ue1(), [20.5, 1.0], SCARCE)
    # the same rate is fine when capacity is abundant
    assert math.isfinite(split_value(_ue1(), [20.5, 1.0], ABUNDANT))


def test_split_value_rate_count_mismatch():
    with pytest.raises(ContractError):
        split_value(_ue1(), [1.0], SCARCE)


def test_split_value_starved_weighted_app_is_sentinel():
    assert split_value(_ue1(), [0.0, 1.0], SCARCE) == NEG_INF
    # abundant: the sigmoid app is evaluated at its 20.0 target instead
    assert split_value(_ue1(), [0.0, 1.0], ABUNDANT) > NEG_INF
