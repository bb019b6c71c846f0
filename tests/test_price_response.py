"""Demand solves and bid shaping against closed forms and brute force."""

import math
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nura import intra_ue, price_response, protocol, scenario
from nura import (
    Application,
    CaseFlag,
    DomainError,
    LogarithmicUtility,
    SigmoidalUtility,
    SolverError,
    UserClass,
    UserProfile,
    app_rate_at_price,
    damp_bid,
    run_first_stage,
    run_once,
    user_rate_at_price,
    vip_bid,
)
from nura.utility import add_up, regime_table
from test_invariance import _fuzz_trees

# log1p(k * r_max) = 1 exactly, so demand has the closed form w/p - 1
UNIT_LOG = LogarithmicUtility(k=1.0, r_max=math.e - 1.0)


def log_app(weight=1.0, target=None):
    return Application(utility=UNIT_LOG, weight=weight, target_rate=target)


def _offset_and_cap(app, case):
    """The application's row offset and cap under the regime, stated here:
    under abundant capacity its target is granted as an offset and nothing
    is capped; under scarce capacity nothing is granted and its target, if
    any, caps its rate."""
    if case is CaseFlag.TARGETS_BELOW_CAPACITY:
        return app.offset, math.inf
    return 0.0, math.inf if app.target_rate is None else app.target_rate


# ---------------------------------------------------------------------------
# closed-form demands


def test_log_demand_closed_form():
    # FOC: w k / ((1 + k r) ln(1 + k r)) = p, i.e. (1 + r) ln(1 + r) = w/p
    # for k = 1; roots below frozen from mpmath.lambertw
    rate = app_rate_at_price(log_app(), price=1.0 / 11.0)
    assert rate == pytest.approx(5.089113931609503, abs=1e-12)
    rate = app_rate_at_price(log_app(weight=0.5), price=0.25)
    assert rate == pytest.approx(1.345750754922765, abs=1e-12)


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


@pytest.mark.parametrize("cap", [-1.0, math.nan])
def test_negative_cap_rejected_before_early_exits(cap):
    # zero weight returns 0 before any solve, and a vanishing demand
    # (about weight / price near rate 0) is still solved; a negative or
    # nan cap is an error in both (a nan cap returned 0.0)
    with pytest.raises(DomainError, match="cap must be nonnegative"):
        app_rate_at_price(log_app(weight=0.0), price=0.01, cap=cap)
    sigmoid = Application(utility=SigmoidalUtility(a=1.0, b=20.0), weight=0.5)
    assert app_rate_at_price(sigmoid, price=1e12) == pytest.approx(5.0e-13, rel=1e-12)
    with pytest.raises(DomainError, match="cap must be nonnegative"):
        app_rate_at_price(sigmoid, price=1e12, cap=cap)


def test_cap_slack_at_high_price():
    rate = app_rate_at_price(log_app(), price=0.5, cap=4.0)
    assert rate == pytest.approx(1.345750754922765, abs=1e-6)  # interior FOC root


def test_offset_shifts_demand_down():
    # with the target already granted the FOC root moves to rate+target,
    # so the surplus demand drops by exactly the target
    app = log_app(target=3.0)
    with_offset = app_rate_at_price(app, price=0.1, offset=app.offset)
    without = app_rate_at_price(app, price=0.1)
    assert without == pytest.approx(4.728925565386941, abs=1e-6)
    assert with_offset == pytest.approx(4.728925565386941 - 3.0, abs=1e-6)


def test_offset_demand_zero_when_target_saturates():
    app = log_app(target=10.0)
    assert app_rate_at_price(app, price=0.5, offset=app.offset) == 0.0


def test_price_validation():
    for bad in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(DomainError):
            app_rate_at_price(log_app(), price=bad)


# ---------------------------------------------------------------------------
# demand as argmax: golden-section and grid cross-checks


def _surplus(app, offset, price):
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
    # the target, where there is one, is granted as an offset
    rate = app_rate_at_price(app, price, offset=app.offset)
    value = _surplus(app, app.offset, price)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    utility = app.utility
    lo, hi = 0.0, utility.b if isinstance(utility, SigmoidalUtility) else utility.r_max
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
    total = user_rate_at_price(regime_table([user], 100.0), 0, price=1.0 / 11.0)
    assert total == pytest.approx(2.0 * 5.089113931609503, abs=1e-5)
    # a VIP whose target of 8 caps its first app (under 5.09) and, under
    # scarce capacity, its total; under abundant capacity the target is
    # granted, and the first app demands nothing above it
    vip = replace(user, user_class=UserClass.VIP, apps=(log_app(0.5, target=8.0), apps[1]))
    assert user_rate_at_price(regime_table([vip], 8.0), 0, price=1.0 / 11.0) == 8.0
    abundant = user_rate_at_price(regime_table([vip], 100.0), 0, price=1.0 / 11.0)
    assert abundant == pytest.approx(5.089113931609503, abs=1e-5)


# ---------------------------------------------------------------------------
# closed forms against bisection on the same stationarity condition


def _bisection_demand(app, price, cap, offset, abs_tol):
    """Reference demand: bisect weight * (ln U)'(r + c) = price on [0, cap],
    c being offset.

    Zero demand when the marginal a hair above zero (abs_tol, or 0 with
    an offset) is already below the price; midpoint steps stop once the
    bracket is at most abs_tol wide.
    """

    def above(rate):
        return app.weight * app.utility.dlog_evaluate(rate + offset) > price

    if not above(0.0 if offset > 0.0 else abs_tol) or cap == 0.0:
        return 0.0
    if cap < math.inf:
        if app.weight * app.utility.dlog_evaluate(cap + offset) >= price:
            return cap
        hi = cap
    else:
        utility = app.utility
        hi = utility.b if isinstance(utility, SigmoidalUtility) else utility.r_max
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


def _mpmath_demand(a, b, weight, price, cap, offset):
    """Reference sigmoid demand: bisect weight * (ln U)'(r + c) = price in mpmath.

    The working precision, 30 + a*b/2.3 digits, keeps e^{-ab} next to 1
    and the marginal's flat stretch (where price is near a * weight)
    resolved; the root is clamped to [0, cap] as the demand is.
    """
    with mpmath.workdps(30 + int(a * b / 2.3)):
        a, b, weight, price = (mpmath.mpf(v) for v in (a, b, weight, price))
        e_ab = mpmath.exp(-a * b)

        def above(rate):  # the denominator of dlog_evaluate without cancellation
            denom = e_ab * mpmath.expm1(a * rate) - mpmath.expm1(-a * rate)
            return weight * a * (1 + e_ab) > price * denom

        if not above(mpmath.mpf(offset)):
            return 0.0
        if cap < math.inf and above(mpmath.mpf(cap) + offset):
            return cap
        lo, hi = mpmath.mpf(offset), mpmath.mpf(b) + offset
        while above(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > mpmath.mpf(10) ** -20 * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        return float((lo + hi) / 2 - offset)


def _mpmath_log_demand(k, weight, price, cap, offset):
    """Reference log demand in mpmath: v = ln(1 + k r) is the Lambert W of
    z = k * weight / price (Corless et al., 1996), so r = expm1(W(z)) / k;
    less the offset and clamped to [0, cap] as the demand is."""
    with mpmath.workdps(40):
        k, weight, price = (mpmath.mpf(v) for v in (k, weight, price))
        rate = mpmath.expm1(mpmath.lambertw(k * weight / price).real) / k - offset
        return float(min(max(rate, 0), cap))


# The sigmoid ranges of the fuzz generator in bench/cells.py, prices
# 1e-6..1e3, and a target that is an offset (abundant), a cap (scarce)
# or absent.
@given(
    a=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
    b=st.floats(5.0, 60.0),
    weight=st.floats(0.01, 1.0),
    log10_price=st.floats(-6.0, 3.0),
    target=st.one_of(st.none(), st.floats(1.0, 30.0)),
    case=st.sampled_from(list(CaseFlag)),
)
# On the flat stretch below b, capped and uncapped.
@example(3.0, 20.0, 0.5, math.log10(1.5000000037252903), 20.0, CaseFlag.TARGETS_EXCEED_CAPACITY)
@example(3.0, 20.0, 0.5, math.log10(1.494274840696366), None, CaseFlag.TARGETS_BELOW_CAPACITY)
# The plateau price a * weight itself, also where e^{-ab} underflows to 0.
@example(10.0, 5.0, 1.0, 1.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
@example(10.0, 100.0, 1.0, 1.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_sigmoid_demand_closed_form_matches_mpmath(a, b, weight, log10_price, target, case):
    app = Application(SigmoidalUtility(a, b), weight, target)
    price = 10.0**log10_price
    offset, cap = _offset_and_cap(app, case)
    rate = app_rate_at_price(app, price, cap, offset)
    reference = _mpmath_demand(a, b, weight, price, cap, offset)
    assert 0.0 <= rate <= cap
    assert rate == pytest.approx(reference, abs=1e-12 * max(abs(reference), 1.0), rel=0.0)


@given(
    log10_k=st.floats(-6.0, 3.0),
    r_max=st.floats(1.0, 200.0),
    log10_weight=st.floats(-300.0, 0.0),
    log10_price=st.floats(-150.0, 6.0),
    target=st.one_of(st.none(), st.floats(1.0, 30.0)),
    case=st.sampled_from(list(CaseFlag)),
)
# Demand w/p of about 1e-306 where z = w k / p is about 1e-312, a denormal.
@example(-6.0, 10.0, -300.0, 6.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
# Demand of about 1e147 at the clearing's price floor, and the same capped.
@example(-6.0, 10.0, 0.0, -150.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
@example(-6.0, 10.0, 0.0, -150.0, 5.0, CaseFlag.TARGETS_EXCEED_CAPACITY)
# z = e^-13.9, just inside the series branch.
@example(0.0, 10.0, 0.0, 13.9 / math.log(10.0), None, CaseFlag.TARGETS_BELOW_CAPACITY)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_log_demand_closed_form_matches_bisection(
    log10_k, r_max, log10_weight, log10_price, target, case
):
    app = Application(LogarithmicUtility(10.0**log10_k, r_max), 10.0**log10_weight, target)
    price = 10.0**log10_price
    offset, cap = _offset_and_cap(app, case)
    rate = app_rate_at_price(app, price, cap, offset)
    reference = _bisection_demand(app, price, cap, offset, 1e-10)
    assert 0.0 <= rate <= cap
    assert rate == pytest.approx(reference, abs=1e-10, rel=1e-12)


@given(
    log10_k=st.floats(-6.0, 3.0),
    r_max=st.floats(1.0, 200.0),
    log10_weight=st.floats(-300.0, 0.0),
    log10_price=st.floats(-150.0, 6.0),
    target=st.one_of(st.none(), st.floats(1.0, 30.0)),
    case=st.sampled_from(list(CaseFlag)),
)
# The examples of the bisection test above: z about 1e-312, a denormal;
# demand of about 1e147, uncapped and capped; z = e^-13.9.
@example(-6.0, 10.0, -300.0, 6.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
@example(-6.0, 10.0, 0.0, -150.0, None, CaseFlag.TARGETS_BELOW_CAPACITY)
@example(-6.0, 10.0, 0.0, -150.0, 5.0, CaseFlag.TARGETS_EXCEED_CAPACITY)
@example(0.0, 10.0, 0.0, 13.9 / math.log(10.0), None, CaseFlag.TARGETS_BELOW_CAPACITY)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_log_demand_closed_form_matches_mpmath(
    log10_k, r_max, log10_weight, log10_price, target, case
):
    """The closed form against the Lambert W in mpmath, over the ranges of
    the bisection test: it is the demand both solvers read."""
    app = Application(LogarithmicUtility(10.0**log10_k, r_max), 10.0**log10_weight, target)
    price = 10.0**log10_price
    offset, cap = _offset_and_cap(app, case)
    rate = app_rate_at_price(app, price, cap, offset)
    reference = _mpmath_log_demand(app.utility.k, app.weight, price, cap, offset)
    assert rate == pytest.approx(reference, rel=1e-12, abs=1e-13 * (reference + offset))


def test_log_demand_past_float_range_raises():
    # demand is about w / (p ln z), here 1 / (5e-324 * 737): past float range
    app = Application(LogarithmicUtility(k=1.0, r_max=10.0), weight=1.0)
    with pytest.raises(SolverError, match="float range"):
        app_rate_at_price(app, price=5e-324)
    assert app_rate_at_price(app, price=5e-324, cap=7.0) == 7.0
    assert app_rate_at_price(app, price=1e-300) == pytest.approx(1.45e297, rel=1e-2)


# Demand calls per split, bounds about 30% above the measured 2.5 at
# R = 30 (only ue1's cap binds, and its rows are cleared again from the
# final price) and exactly the measured 0 at R = 100 (no user is capped).
_DEMANDS_PER_SPLIT = {30.0: 3.3, 100.0: 0.0}


@pytest.mark.parametrize("capacity", [30.0, 100.0])  # scarce, abundant
def test_demand_effort_on_reference_cell(cell, capacity, monkeypatch):
    """Derivative evaluations of the bidding rounds and demand calls per split.

    Counts, not times: with plain bisection on rate and price these
    were 32-37 evaluations per demand call and 34-52 demand calls per
    split. Every demand is now closed-form, so the bids make no
    derivative call at all (only the clearings' Newton steps in ln p
    do), and only a user whose demand passes its rate is split again,
    from the final price.
    """
    counts = Counter()  # each count also keeps its share per stage
    stage = [None]  # "bid" or "split" while one runs

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

    # A bidding round is one round_bids call for all its bidders (counted
    # as bid_demand). The first stage's closing clearing also calls
    # intra_ue's per-app demand; only calls made while it clears a capped
    # user's rows again (each protocol.clear_price call after the first)
    # count as split_demand.
    monkeypatch.setattr(
        protocol,
        "round_bids",
        staged(counted(protocol.round_bids, "demand"), "bid"),
    )
    for cls in (SigmoidalUtility, LogarithmicUtility):
        for method in ("dlog_evaluate", "dlog_slope"):
            monkeypatch.setattr(cls, method, counted(getattr(cls, method), "dlog"))
    demand = counted(price_response.app_rate_at_price, "demand")
    monkeypatch.setattr(price_response, "app_rate_at_price", demand)
    monkeypatch.setattr(intra_ue, "app_rate_at_price", demand)
    closing, resplit = protocol.clear_price, staged(protocol.clear_price, "split")

    def clearing(*args):
        counts["clearings"] += 1
        return (closing if counts["clearings"] == 1 else resplit)(*args)

    monkeypatch.setattr(protocol, "clear_price", clearing)
    monkeypatch.setattr(
        scenario, "allocate_internal", counted(protocol.allocate_internal, "splits"))
    run_once(replace(cell, capacity=capacity))
    assert counts["splits"] == len(cell.users)
    assert counts["dlog"] <= 15 * counts["demand"]
    assert counts["split_demand"] <= 35 * counts["splits"]
    assert counts["bid_demand"] > 0
    assert counts["bid_dlog"] == 0
    assert counts["split_demand"] <= _DEMANDS_PER_SPLIT[capacity] * counts["splits"]


def _curve_slots(users, capacity):
    """Each participant's curve slots in the bidding layout, and the
    number of distinct curves."""
    table = regime_table(users, capacity)
    layout = price_response.bidders(table)
    slots = {member.user_id: [slot for slot, _, _ in member.rows] for member in layout.members}
    return slots, sum(len(demands) for _, demands in layout.groups)


def _curves_by_equality(table):
    """Each row's curve slot, grouping rows by dataclass equality of
    (utility, weight, beta) in first-appearance order; None at weight 0."""
    keys, curve_of = [], []
    for row in table.rows:
        if row.app.weight == 0.0:
            curve_of.append(None)
            continue
        key = (row.app.utility, row.app.weight, table.participants[row.user_slot].beta)
        if key not in keys:
            keys.append(key)
        curve_of.append(keys.index(key))
    return tuple(curve_of)


def test_bidders_share_a_curve_only_at_equal_utility_weight_and_beta(cell, monkeypatch):
    # ue3 and ue4 hold ue1's and ue2's curves and weights at beta 1
    slots, distinct = _curve_slots(cell.users, 200.0)
    assert slots == {"ue1": [0, 1], "ue2": [2, 3], "ue3": [0, 1], "ue4": [2, 3]}
    assert distinct == 4
    # ue3 at beta 2 demands at half the price: no shared evaluation
    users = tuple(replace(u, beta=2.0) if u.user_id == "ue3" else u for u in cell.users)
    slots, distinct = _curve_slots(users, 200.0)
    assert slots["ue3"] == [4, 5] and distinct == 6
    # other weights make other curves
    ue4 = cell.users[3]
    apps = tuple(replace(app, weight=1.0 - app.weight) for app in ue4.apps)
    slots, distinct = _curve_slots(cell.users[:3] + (replace(ue4, apps=apps),), 200.0)
    assert slots["ue4"] == [4, 5] and distinct == 6
    # under scarce capacity only the VIPs bid
    assert _curve_slots(cell.users, 40.0) == ({"ue1": [0, 1], "ue2": [2, 3]}, 4)
    # the curve's class counts: equal fields of a sigmoid and a log curve are two curves
    sig, log = SigmoidalUtility(a=2, b=50), LogarithmicUtility(k=2, r_max=50)
    users = [UserProfile(uid, UserClass.REGULAR, 1.0, (Application(utility, 0.5),))
             for uid, utility in (("s", sig), ("l", log))]
    assert _curve_slots(users, 10.0) == ({"s": [0], "l": [1]}, 2)
    # equal utilities built apart are one curve, ints and floats alike
    users = [UserProfile(uid, UserClass.REGULAR, 1.0, (Application(utility, 0.5),))
             for uid, utility in (("a", SigmoidalUtility(a=2, b=50)),
                                  ("b", SigmoidalUtility(a=2.0, b=50.0)))]
    assert users[0].apps[0].utility is not users[1].apps[0].utility
    assert _curve_slots(users, 10.0) == ({"a": [0], "b": [0]}, 1)
    # on the fuzz cells and the benchmark's large cell, rows group as by ==
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import cells

    trees = [tree for seed in (3, 7, 8, 11) for tree in _fuzz_trees(seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        configs = [scenario.scenario_from_dict(tree) for tree in trees + [cells.large_tree(7)]]
    for config in configs:
        table = regime_table(config.users, config.capacity)
        assert table.curve_of == _curves_by_equality(table)


# ---------------------------------------------------------------------------
# per-member bids against a left-to-right restatement of their demand

_CURVE_APPS = (
    Application(utility=LogarithmicUtility(k=2.0, r_max=60.0), weight=0.6),
    Application(utility=SigmoidalUtility(a=0.7, b=9.0), weight=0.9),
    Application(utility=SigmoidalUtility(a=1.0, b=30.0), weight=0.4),
    Application(utility=UNIT_LOG, weight=1.0),
)
_BETAS = (0.5, 1.0, 2.0, 5.0)


def _reference_demands(layout, price):
    """Each member's min(max(v - c, 0), lim), added left to right, then
    clipped at the member's cap."""
    curves = [(curve, beta) for beta, demands in layout.groups for curve in demands]
    out = []
    for member in layout.members:
        total = 0.0
        for slot, offset, lim in member.rows:
            curve, beta = curves[slot]
            total = total + min(max(curve(price / beta, math.log(price / beta)) - offset, 0.0),
                                lim)
        out.append(min(total, member.cap))
    return out


def _layout(curves, members):
    """The BidLayout of curves, each (demand, beta), and members, each
    (user_id, beta, cap, offset, rows) with its rows' slots indexing
    curves: the curves grouped by beta, the betas in the order the members
    and then the curves first hold them, and the slots taken again."""
    betas = list(dict.fromkeys([member[1] for member in members] + [b for _, b in curves]))
    order = [slot for beta in betas for slot, (_, b) in enumerate(curves) if b == beta]
    place = {slot: at for at, slot in enumerate(order)}
    groups = tuple((beta, tuple(curve for curve, b in curves if b == beta)) for beta in betas)
    return price_response.BidLayout(groups, tuple(
        price_response.Bidder(user_id, betas.index(beta), cap, offset,
                              tuple((place[slot], c, lim) for slot, c, lim in rows))
        for user_id, beta, cap, offset, rows in members))


@st.composite
def _layouts(draw):
    """A price and a BidLayout whose members share curves at equal beta,
    with row offsets and caps on both sides of each row's demand."""
    price = 10.0 ** draw(st.floats(-3.0, 2.0))
    slots: dict[tuple[int, float], int] = {}
    curves = []
    members = []
    fraction = st.floats(0.0, 2.0)
    for index in range(draw(st.integers(1, 5))):
        beta = draw(st.sampled_from(_BETAS))
        rows = []
        for app_index in draw(st.lists(st.integers(0, len(_CURVE_APPS) - 1), max_size=4)):
            slot = slots.setdefault((app_index, beta), len(curves))
            if slot == len(curves):
                curves.append((_CURVE_APPS[app_index].demand_at, beta))
            demand = curves[slot][0](price / beta, math.log(price / beta))
            offset = draw(fraction) * demand
            cap = draw(st.one_of(st.just(math.inf), fraction.map(lambda f: f * demand)))
            rows.append((slot, offset, cap))
        cap = draw(st.one_of(st.just(math.inf), st.floats(0.0, 200.0)))
        members.append((f"u{index}", beta, cap, 0.0, tuple(rows)))
    return price, _layout(curves, members)


@settings(max_examples=300, deadline=None)
@given(_layouts())
def test_demands_add_each_members_rows_left_to_right(drawn):
    price, layout = drawn
    got, total, moved = _undamped_bids(layout, price)
    expected = [price * (demand + member.offset)
                for demand, member in zip(_reference_demands(layout, price), layout.members)]
    assert [x.hex() for x in got.values()] == [x.hex() for x in expected]
    assert list(got) == [member.user_id for member in layout.members]
    assert total.hex() == add_up(got.values()).hex()
    assert moved == any(not abs(bid - 0.0) < 1.0 for bid in got.values())


def _member(user_id, beta, rows, cap=math.inf):
    return user_id, beta, cap, 0.0, tuple(rows)


def _undamped_bids(layout, price):
    """One round from bids of 0 with no step bound and delta 1: (bids, total,
    moved), each bid price * (demand + offset)."""
    prev = {member.user_id: 0.0 for member in layout.members}
    return price_response.round_bids(layout, price, math.inf, prev, 1.0)


def test_demands_raise_at_the_first_member_out_of_range():
    curves = tuple((app.demand_at, beta) for app in _CURVE_APPS[:1] for beta in (2.0, 0.5, 5.0))
    fine = _member("a", 2.0, [(0, 0.0, 5.0)])
    high, low = _member("b", 0.5, [(1, 0.0, 5.0)]), _member("c", 5.0, [(2, 0.0, 5.0)])
    layout = _layout(curves, (fine, high, low))
    with pytest.raises(DomainError, match=r"price must be positive, got inf"):
        _undamped_bids(layout, 1e308)  # 1e308 / 0.5 overflows
    with pytest.raises(DomainError, match=r"price must be positive, got 0\.0"):
        _undamped_bids(layout, 5e-324)  # 5e-324 / 5 underflows
    layout = _layout(curves, (fine, low, high))
    with pytest.raises(DomainError, match=r"price must be positive, got 0\.0"):
        _undamped_bids(layout, 5e-324)


def test_demands_past_float_range_raise_only_uncapped():
    # demand is about w / (p ln z), past float range at 5e-324 and beta 1
    app = Application(LogarithmicUtility(k=1.0, r_max=10.0), weight=1.0)
    curves = ((app.demand_at, 1.0), (app.demand_at, 5.0))
    capped = _member("a", 1.0, [(0, 3.0, 7.0), (0, 0.0, 2.0)])
    uncapped = _member("b", 1.0, [(0, 0.0, 1.0), (0, 0.0, math.inf)])
    low = _member("c", 5.0, [(1, 0.0, math.inf)])
    layout = _layout(curves, (capped, _member("d", 1.0, [(0, 0.0, 7.0)], 4.0)))
    price = 5e-324
    bids, total, moved = _undamped_bids(layout, price)
    assert bids == {"a": price * (9.0 + 0.0), "d": price * (4.0 + 0.0)}
    assert total == price * 9.0 + price * 4.0 and not moved
    # bids at 5e-324 resolve demand to about 1; at 1e-300 the same caps bind, to the bit
    bids, total, moved = _undamped_bids(layout, 1e-300)
    assert bids == {"a": 1e-300 * 9.0, "d": 1e-300 * 4.0}
    assert total == 1e-300 * 9.0 + 1e-300 * 4.0 and not moved
    layout = _layout(curves, (capped, uncapped, low))
    with pytest.raises(SolverError, match="demand at price 5e-324 exceeds float range"):
        _undamped_bids(layout, price)
    # members raise in order: the one out of range comes first here
    layout = _layout(curves, (capped, low, uncapped))
    with pytest.raises(DomainError, match=r"got 0\.0"):
        _undamped_bids(layout, price)


def test_a_round_moved_when_a_bid_changed_by_delta_or_more_or_its_last_bid_is_nan():
    # members without rows bid price * offset, here exactly 3 and 5
    members = tuple((uid, 1.0, math.inf, offset, ()) for uid, offset in (("a", 3.0), ("b", 5.0)))
    layout = _layout((), members)

    def one_round(last_a, last_b, step=math.inf):
        return price_response.round_bids(layout, 1.0, step, {"a": last_a, "b": last_b}, 0.25)

    assert one_round(3.0, 5.0) == ({"a": 3.0, "b": 5.0}, 8.0, False)
    assert one_round(2.75, 5.0)[2]  # a move of exactly delta
    assert not one_round(math.nextafter(2.75, 3.0), 5.0)[2]
    assert not one_round(3.0, 5.0 + 0.125)[2]
    # a nan last bid is no bound for damping, and it counts as a move
    assert one_round(3.0, math.nan) == ({"a": 3.0, "b": 5.0}, 8.0, True)
    assert one_round(math.nan, 5.0, step=1.0) == ({"a": 3.0, "b": 5.0}, 8.0, True)
    # damped bids are what is added and tested
    assert one_round(0.0, 5.0, step=0.25) == ({"a": 0.25, "b": 5.0}, 5.25, True)
    assert one_round(0.0, 5.0, step=0.125) == ({"a": 0.125, "b": 5.0}, 5.125, False)


class DividedPrice(float):
    """A price that counts how often it is divided, in DividedPrice.count;
    a quotient is a plain float."""

    count = 0

    def __truediv__(self, other):
        DividedPrice.count += 1
        return float.__truediv__(self, other)


def two_beta_users(cell):
    """The reference users with ue2 and ue4 at beta 2: two betas, with two
    distinct curves at each, which ue3 and ue4 share with ue1 and ue2."""
    return tuple(replace(user, beta=2.0) if user.user_id in ("ue2", "ue4") else user
                 for user in cell.users)


@pytest.mark.parametrize("capacity", [50.0, 200.0])  # scarce: ue1 and ue2 bid; abundant: all
def test_a_round_divides_the_price_once_per_beta(cell, capacity, monkeypatch):
    # A round takes price / beta once per distinct beta, for every curve and
    # member at that beta: 2 divisions a round, where each curve and each
    # member dividing it took 6 (scarce) and 8 (abundant).
    divisions = []

    def counted(layout, price, *rest, original=protocol.round_bids):
        DividedPrice.count = 0
        out = original(layout, DividedPrice(price), *rest)
        divisions.append(DividedPrice.count)
        return out

    monkeypatch.setattr(protocol, "round_bids", counted)
    result = run_first_stage(two_beta_users(cell), capacity, cell.protocol)
    assert len(divisions) == result.rounds_used - 1 > 0 and set(divisions) == {2}
    monkeypatch.undo()
    assert run_first_stage(two_beta_users(cell), capacity, cell.protocol) == result


# ---------------------------------------------------------------------------
# bid damping


def test_damp_bid_step_envelope():
    # the protocol's step at round 10 with l1=5, l2=10 is 5/e
    step = 5.0 * math.exp(-1.0)
    assert damp_bid(100.0, 10.0, step) == 10.0 + step
    assert damp_bid(-50.0, 10.0, step) == 10.0 - step
    assert damp_bid(10.5, 10.0, step) == 10.5  # within step: passthrough


@given(
    proposed=st.floats(-100.0, 100.0),
    prev=st.floats(-100.0, 100.0),
    round_index=st.integers(1, 400),
)
@settings(max_examples=150, deadline=None)
def test_damp_bid_never_exceeds_step_or_overshoots(proposed, prev, round_index):
    step = 5.0 * math.exp(-round_index / 10.0)
    result = damp_bid(proposed, prev, step)
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
    # total target 4; the target reaches R = 4, so capacity is scarce
    table = regime_table([_vip()], 4.0)
    assert table.case is CaseFlag.TARGETS_EXCEED_CAPACITY
    bid = vip_bid(table, 0, 0.05, 50, prev_bid=0.0, l1=5.0, l2=10.0)
    # round 50 step 5e^{-5} ~ 0.0337 from 0: damping binds
    assert bid == pytest.approx(5.0 * math.exp(-5.0), rel=1e-12)
    bid = vip_bid(table, 0, 0.05, 1, prev_bid=0.19, l1=5.0, l2=10.0)
    assert bid == pytest.approx(0.05 * 4.0, abs=1e-8)  # undamped: p * capped rate


def test_vip_bid_abundant_form():
    # surplus demands at p=0.05 with w=0.5: FOC root y-1 = 4.7289255654
    # (w/p = 10); the targeted app keeps the surplus above 4, and the
    # bid covers surplus + target
    table = regime_table([_vip()], 100.0)
    assert table.case is CaseFlag.TARGETS_BELOW_CAPACITY
    bid = vip_bid(table, 0, 0.05, 1, prev_bid=0.9, l1=50.0, l2=10.0)
    surplus = (4.728925565386941 - 4.0) + 4.728925565386941
    assert bid == pytest.approx(0.05 * (surplus + 4.0), abs=1e-6)
