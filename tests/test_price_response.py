"""Demand solves and bid shaping against closed forms and brute force."""

import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nura import intra_ue, price_response, scenario
from nura import (
    Application,
    CaseFlag,
    DomainError,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    app_rate_at_price,
    damp_bid,
    run_once,
    user_rate_at_price,
    vip_bid,
)

# log1p(k * r_max) = 1 exactly, so demand has the closed form w/p - 1
UNIT_LOG = LogarithmicUtility(k=1.0, r_max=math.e - 1.0)


def log_app(weight=1.0, target=None):
    return Application(utility=UNIT_LOG, weight=weight, target_rate=target)


# ---------------------------------------------------------------------------
# closed-form demands


def test_log_demand_closed_form():
    # FOC: w k / ((1 + k r) ln(1 + k r)) = p, i.e. (1 + r) ln(1 + r) = w/p
    # for k = 1; roots below frozen from mpmath.lambertw
    rate = app_rate_at_price(log_app(), price=1.0 / 11.0)
    assert rate == pytest.approx(5.089113931609503, abs=1e-6)
    rate = app_rate_at_price(log_app(weight=0.5), price=0.25)
    assert rate == pytest.approx(1.345750754922765, abs=1e-6)


def test_sigmoid_demand_closed_form():
    # 0.7 * (ln U)'(2) for the unit sigmoid, frozen from mpmath
    app = Application(utility=SigmoidalUtility(a=1.0, b=1.0), weight=0.7)
    rate = app_rate_at_price(app, price=0.2978213448837625407968)
    assert rate == pytest.approx(2.0, abs=1e-6)


def test_demand_stays_positive_but_shrinks_at_high_price():
    # ln U has unbounded slope at 0+, so demand never chokes to exactly
    # zero; it just gets small.
    rate = app_rate_at_price(log_app(), price=1e6)
    assert 0.0 < rate < 0.01


def test_zero_weight_demands_nothing():
    assert app_rate_at_price(log_app(weight=0.0), price=1e-6) == 0.0


def test_demand_monotone_in_price():
    prices = [10.0 ** (-3 + 6 * i / 49) for i in range(50)]
    app = Application(utility=SigmoidalUtility(a=0.5, b=12.0), weight=0.8)
    rates = [app_rate_at_price(app, p) for p in prices]
    for left, right in zip(rates, rates[1:]):
        assert right <= left + 1e-7


# ---------------------------------------------------------------------------
# caps and offsets


def test_cap_binds_at_low_price():
    assert app_rate_at_price(log_app(), price=0.01, cap=4.0) == 4.0
    assert app_rate_at_price(log_app(), price=0.01, cap=0.0) == 0.0
    with pytest.raises(DomainError):
        app_rate_at_price(log_app(), price=0.01, cap=-1.0)


def test_negative_cap_rejected_before_early_exits():
    # zero weight, and zero demand at the probe, both return 0 before any
    # search; a negative cap is still an error there
    with pytest.raises(DomainError):
        app_rate_at_price(log_app(weight=0.0), price=0.01, cap=-1.0)
    sigmoid = Application(utility=SigmoidalUtility(a=1.0, b=20.0), weight=0.5)
    assert app_rate_at_price(sigmoid, price=1e12) == 0.0
    with pytest.raises(DomainError):
        app_rate_at_price(sigmoid, price=1e12, cap=-1.0)


def test_start_outside_the_domain():
    sigmoid = Application(utility=SigmoidalUtility(a=3.0, b=20.0), weight=0.5)
    cold = app_rate_at_price(sigmoid, price=0.5)
    # a start below zero or above every rate is clipped to the range searched
    for start in [-5.0, 0.0, math.inf]:
        assert app_rate_at_price(sigmoid, price=0.5, start=start) == pytest.approx(cold, abs=1e-8)
        assert app_rate_at_price(sigmoid, price=0.5, cap=10.0, start=start) == 10.0
    with pytest.raises(DomainError):
        app_rate_at_price(sigmoid, price=0.5, start=math.nan)


def test_cap_slack_at_high_price():
    rate = app_rate_at_price(log_app(), price=0.5, cap=4.0)
    assert rate == pytest.approx(1.345750754922765, abs=1e-6)  # interior FOC root


def test_offset_shifts_demand_down():
    # with the target already granted the FOC root moves to rate+target,
    # so the surplus demand drops by exactly the target
    app = log_app(target=3.0)
    with_offset = app_rate_at_price(app, price=0.1, case=CaseFlag.TARGETS_BELOW_CAPACITY)
    without = app_rate_at_price(app, price=0.1, case=CaseFlag.TARGETS_EXCEED_CAPACITY)
    assert without == pytest.approx(4.728925565386941, abs=1e-6)
    assert with_offset == pytest.approx(4.728925565386941 - 3.0, abs=1e-6)


def test_offset_demand_zero_when_target_saturates():
    app = log_app(target=10.0)
    assert app_rate_at_price(app, price=0.5, case=CaseFlag.TARGETS_BELOW_CAPACITY) == 0.0


def test_price_validation():
    for bad in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(DomainError):
            app_rate_at_price(log_app(), price=bad)


# ---------------------------------------------------------------------------
# demand as argmax: golden-section and grid cross-checks


def _surplus(app, case, price):
    offset = case.app_offset(app)

    def value(rate):
        if rate + offset <= 0.0:
            return -math.inf
        return (
            app.weight * app.utility.log_evaluate(rate + offset)
            - price * (rate + offset)
        )

    return value


@pytest.mark.parametrize(
    "app, price",
    [
        (Application(utility=LogarithmicUtility(k=2.0, r_max=60.0), weight=0.6), 0.05),
        (Application(utility=SigmoidalUtility(a=0.7, b=9.0), weight=0.9), 0.21),
        (Application(utility=UNIT_LOG, weight=1.0, target_rate=2.5), 0.04),
    ],
)
def test_demand_matches_golden_section(app, price):
    rate = app_rate_at_price(app, price)
    value = _surplus(app, CaseFlag.TARGETS_BELOW_CAPACITY, price)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, app.utility.rate_scale
    while value(2.0 * hi) > value(hi):  # expand until the peak is enclosed
        hi *= 2.0
    hi *= 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = value(x1), value(x2)
    while hi - lo > 1e-9:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = value(x1)
    assert rate == pytest.approx(0.5 * (lo + hi), abs=1e-4)


def test_user_demand_beats_every_grid_split():
    """Separable optimum: per-app demands beat any coarse 2-D allocation."""
    apps = (
        Application(utility=LogarithmicUtility(k=1.5, r_max=40.0), weight=0.45),
        Application(utility=SigmoidalUtility(a=0.8, b=6.0), weight=0.55),
    )
    user = UserProfile("u", UserClass.REGULAR, beta=1.0, apps=apps)
    price = 0.11
    best = [app_rate_at_price(app, price) for app in apps]

    def net(rates):
        total = 0.0
        for app, rate in zip(apps, rates):
            if rate > 0.0:
                total += app.weight * app.utility.log_evaluate(rate)
            elif app.weight > 0.0:
                return -math.inf
        return total - price * sum(rates)

    reference = net(best)
    for i in range(41):
        for j in range(41):
            assert net([0.5 * i, 0.5 * j]) <= reference + 1e-9


def test_user_rate_scales_price_by_beta():
    apps = (log_app(weight=0.5), log_app(weight=0.5))
    user = UserProfile("u", UserClass.REGULAR, beta=2.0, apps=apps)
    # per-app price (1/11)/2, FOC constant w/p = 11: same root as the
    # single-app weight-1 case, twice
    total = user_rate_at_price(user, price=1.0 / 11.0)
    assert total == pytest.approx(2.0 * 5.089113931609503, abs=1e-5)
    assert user_rate_at_price(user, price=1.0 / 11.0, user_cap=8.0) == 8.0


def test_user_rate_keeps_per_app_demands():
    apps = (log_app(weight=0.5), Application(utility=SigmoidalUtility(a=1.0, b=5.0), weight=0.5))
    user = UserProfile("u", UserClass.REGULAR, beta=2.0, apps=apps)
    demands = [None, None]
    total = user_rate_at_price(user, 0.1, demands=demands)
    assert demands == [app_rate_at_price(app, 0.05) for app in apps]
    assert total == sum(demands)
    # the next price starts from them and overwrites them
    before = list(demands)
    user_rate_at_price(user, 0.11, demands=demands)
    assert demands != before
    assert demands == pytest.approx([app_rate_at_price(app, 0.055) for app in apps], abs=1e-8)


# ---------------------------------------------------------------------------
# Newton kernel against plain bisection on the same stationarity condition


def _bisection_demand(app, price, cap, case, abs_tol):
    """Reference demand: bisect weight * (ln U)'(r + c) = price on [0, cap].

    Same probe, cap and bracket rules as the kernel, but only midpoint
    steps, stopping once the bracket is at most abs_tol wide.
    """
    offset = case.app_offset(app)

    def above(rate):
        return app.weight * app.utility.dlog_evaluate(rate + offset) > price

    if not above(0.0 if offset > 0.0 else abs_tol) or cap == 0.0:
        return 0.0
    if cap is not None:
        if app.weight * app.utility.dlog_evaluate(cap + offset) >= price:
            return cap
        hi = cap
    else:
        hi = app.utility.rate_scale
        while above(hi):
            hi *= 2.0
    lo = 0.0
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The curve ranges of the fuzz generator in bench/cells.py, prices
# 1e-6..1e3, and a target that is an offset (abundant), a cap (scarce)
# or absent.
_CURVES = st.one_of(
    st.builds(
        SigmoidalUtility,
        a=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
        b=st.floats(5.0, 60.0),
    ),
    st.builds(
        LogarithmicUtility,
        k=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
        r_max=st.floats(20.0, 200.0),
    ),
)


@given(
    utility=_CURVES,
    weight=st.floats(0.01, 1.0),
    log10_price=st.floats(-6.0, 3.0),
    target=st.one_of(st.none(), st.floats(1.0, 30.0)),
    case=st.sampled_from(list(CaseFlag)),
    abs_tol=st.sampled_from([1e-8, 1e-10]),
)
@example(UNIT_LOG, 1.0, 3.0, 10.0, CaseFlag.TARGETS_BELOW_CAPACITY, 1e-8)  # zero demand
@example(UNIT_LOG, 1.0, -3.0, 4.0, CaseFlag.TARGETS_EXCEED_CAPACITY, 1e-8)  # cap binds
@example(SigmoidalUtility(a=3.0, b=20.0), 0.5, math.log10(1.5000000037252903),
         20.0, CaseFlag.TARGETS_EXCEED_CAPACITY, 1e-10)  # flat stretch below b
@settings(max_examples=400, deadline=None, derandomize=True)
def test_newton_demand_matches_bisection(utility, weight, log10_price, target, case, abs_tol):
    app = Application(utility=utility, weight=weight, target_rate=target)
    price = 10.0**log10_price
    cap = case.app_cap(app)
    rate = app_rate_at_price(app, price, cap, case, abs_tol)
    reference = _bisection_demand(app, price, cap, case, abs_tol)
    assert 0.0 <= rate <= (math.inf if cap is None else cap)
    assert rate == pytest.approx(reference, abs=abs_tol, rel=0.0)


# Where a warm search may begin: a hair above zero, near the root, on
# the sigmoid's flat stretch below its inflection, at or above the cap
# (at or above rate_scale when uncapped), and far above every root.
_START_KINDS = ["tiny", "near", "flat", "cap", "huge"]


def _start(kind, jitter, reference, utility, cap):
    if kind == "tiny":
        return 1e-9
    if kind == "near":
        return reference * (1.0 + jitter) + abs(jitter)
    if kind == "flat":
        return utility.rate_scale * (0.5 + jitter)
    if kind == "cap":
        return (utility.rate_scale if cap is None else cap) * (1.0 + 20.0 * abs(jitter))
    return 1e6 * utility.rate_scale


@given(
    utility=_CURVES,
    weight=st.floats(0.01, 1.0),
    log10_price=st.floats(-6.0, 3.0),
    target=st.one_of(st.none(), st.floats(1.0, 30.0)),
    case=st.sampled_from(list(CaseFlag)),
    abs_tol=st.sampled_from([1e-8, 1e-10]),
    kind=st.sampled_from(_START_KINDS),
    jitter=st.floats(-0.1, 0.1),
)
# An unbounded Newton step up from the flat stretch once jumped to ~1e48
# here and ran out of iterations; steps up are bounded by the doubling.
@example(SigmoidalUtility(a=3.0, b=20.0), 0.5, math.log10(1.494274840696366),
         None, CaseFlag.TARGETS_BELOW_CAPACITY, 1e-8, "flat", 2.2665 / 20.0 - 0.5)
@example(UNIT_LOG, 1.0, 3.0, 10.0, CaseFlag.TARGETS_BELOW_CAPACITY, 1e-8, "huge", 0.0)
@example(UNIT_LOG, 1.0, -3.0, 4.0, CaseFlag.TARGETS_EXCEED_CAPACITY, 1e-8, "tiny", 0.0)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_warm_demand_matches_bisection(
    utility, weight, log10_price, target, case, abs_tol, kind, jitter
):
    app = Application(utility=utility, weight=weight, target_rate=target)
    price = 10.0**log10_price
    cap = case.app_cap(app)
    reference = _bisection_demand(app, price, cap, case, abs_tol)
    start = _start(kind, jitter, reference, utility, cap)
    rate = app_rate_at_price(app, price, cap, case, abs_tol, start=start)
    assert 0.0 <= rate <= (math.inf if cap is None else cap)
    assert rate == pytest.approx(reference, abs=abs_tol, rel=0.0)


def test_flat_stretch_start_steps_up_by_doubling():
    tried = []

    class Recording(SigmoidalUtility):
        def dlog_evaluate(self, rate):
            tried.append(rate)
            return super().dlog_evaluate(rate)

    price = 1.494274840696366
    cold = app_rate_at_price(
        Application(utility=SigmoidalUtility(a=3.0, b=20.0), weight=0.5), price
    )
    app = Application(utility=Recording(a=3.0, b=20.0), weight=0.5)
    assert app_rate_at_price(app, price, start=2.2665) == pytest.approx(cold, abs=1e-8)
    # no rate tried exceeds twice every rate tried before it, or rate_scale
    for i in range(1, len(tried)):
        assert tried[i] <= max(2.0 * max(tried[:i]), 20.0)
    assert len(tried) <= 15


# Warm-start bounds, about 30% above the measured values: first-stage
# dlog_evaluate calls per demand call (5.04 at R = 30, 3.27 at R = 100;
# 8.2 and 6.6 when every search started cold) and demand calls per split
# (4.0 and 6.0; 12.5 and 12.0 from the fixed start at price 1).
_WARM_EFFORT = {30.0: (6.5, 5.2), 100.0: (4.25, 7.8)}


@pytest.mark.parametrize("capacity", [30.0, 100.0])  # scarce, abundant
def test_demand_effort_on_reference_cell(cell, capacity, monkeypatch):
    """Derivative evaluations per demand and demand calls per split.

    Counts, not times: with plain bisection on rate and price these
    were 32-37 evaluations per demand call and 34-52 demand calls per
    split. Each bidding round starts every demand search from the
    previous round's demand, and the split starts from the final
    price / beta, which the tighter warm-start bounds check.
    """
    counts = Counter()  # each count also keeps its share per stage
    stage = [None]  # "stage1" or "split" while that stage runs

    def counted(func, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stage[0] is not None:
                counts[f"{stage[0]}_{key}"] += 1
            return func(*args, **kwargs)

        return wrapper

    def staged(func, name):
        def wrapper(*args, **kwargs):
            stage[0] = name
            try:
                return func(*args, **kwargs)
            finally:
                stage[0] = None

        return wrapper

    # The first stage's closing clearing also calls intra_ue's demand;
    # only calls made while allocate_internal runs count as split_demand.
    monkeypatch.setattr(scenario, "run_first_stage", staged(scenario.run_first_stage, "stage1"))
    for cls in (SigmoidalUtility, LogarithmicUtility):
        monkeypatch.setattr(cls, "dlog_evaluate", counted(cls.dlog_evaluate, "dlog"))
    demand = counted(price_response.app_rate_at_price, "demand")
    monkeypatch.setattr(price_response, "app_rate_at_price", demand)
    monkeypatch.setattr(intra_ue, "app_rate_at_price", demand)
    monkeypatch.setattr(
        scenario,
        "allocate_internal",
        counted(staged(intra_ue.allocate_internal, "split"), "splits"),
    )
    run_once(replace(cell, capacity=capacity))
    assert counts["splits"] == len(cell.users)
    assert counts["dlog"] <= 15 * counts["demand"]
    assert counts["split_demand"] <= 35 * counts["splits"]
    dlog_per_demand, demands_per_split = _WARM_EFFORT[capacity]
    assert counts["stage1_dlog"] <= dlog_per_demand * counts["stage1_demand"]
    assert counts["split_demand"] <= demands_per_split * counts["splits"]


# ---------------------------------------------------------------------------
# bid damping


def test_damp_bid_step_envelope():
    # step at round 10 with l1=5, l2=10 is 5/e
    step = 5.0 * math.exp(-1.0)
    assert damp_bid(100.0, 10.0, 10, 5.0, 10.0) == pytest.approx(10.0 + step, rel=1e-15)
    assert damp_bid(-50.0, 10.0, 10, 5.0, 10.0) == pytest.approx(10.0 - step, rel=1e-15)
    assert damp_bid(10.5, 10.0, 10, 5.0, 10.0) == 10.5  # within step: passthrough


def test_damp_bid_validation():
    with pytest.raises(DomainError):
        damp_bid(1.0, 0.0, 0, 5.0, 10.0)
    with pytest.raises(DomainError):
        damp_bid(1.0, 0.0, 1, -5.0, 10.0)


@given(
    proposed=st.floats(-100.0, 100.0),
    prev=st.floats(-100.0, 100.0),
    round_index=st.integers(1, 400),
)
@settings(max_examples=150, deadline=None)
def test_damp_bid_never_exceeds_step_or_overshoots(proposed, prev, round_index):
    result = damp_bid(proposed, prev, round_index, 5.0, 10.0)
    step = 5.0 * math.exp(-round_index / 10.0)
    # prev + step rounds once, so the realized delta may exceed the
    # nominal step by half an ulp of prev
    assert abs(result - prev) <= step + 1e-12
    assert min(prev, proposed) - 1e-12 <= result <= max(prev, proposed) + 1e-12


# ---------------------------------------------------------------------------
# vip bids


def _vip():
    apps = (
        Application(utility=UNIT_LOG, weight=0.5, target_rate=4.0),
        Application(utility=UNIT_LOG, weight=0.5),
    )
    return UserProfile("vip", UserClass.VIP, beta=1.0, apps=apps)


def test_vip_bid_scarce_form():
    # per-app FOC demand at p=0.05 is ~4.73, total ~9.46, capped at the
    # total target 4
    user = _vip()
    bid = vip_bid(
        user, 0.05, 50, prev_bid=0.0, l1=5.0, l2=10.0, case=CaseFlag.TARGETS_EXCEED_CAPACITY
    )
    # round 50 step 5e^{-5} ~ 0.0337 from 0: damping binds
    assert bid == pytest.approx(5.0 * math.exp(-5.0), rel=1e-12)
    bid = vip_bid(
        user, 0.05, 1, prev_bid=0.19, l1=5.0, l2=10.0, case=CaseFlag.TARGETS_EXCEED_CAPACITY
    )
    assert bid == pytest.approx(0.05 * 4.0, abs=1e-8)  # undamped: p * capped rate


def test_vip_bid_abundant_form():
    # surplus demands at p=0.05 with w=0.5: FOC root y-1 = 4.7289255654
    # (w/p = 10); the targeted app keeps the surplus above 4, and the
    # bid covers surplus + target
    user = _vip()
    bid = vip_bid(
        user, 0.05, 1, prev_bid=0.9, l1=50.0, l2=10.0, case=CaseFlag.TARGETS_BELOW_CAPACITY
    )
    surplus = (4.728925565386941 - 4.0) + 4.728925565386941
    assert bid == pytest.approx(0.05 * (surplus + 4.0), abs=1e-6)
