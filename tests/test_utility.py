"""Utility primitives: values, derivatives, shape, and edge branches.

Reference numbers are frozen from 50-digit mpmath evaluations of the
defining formulas; the library must reproduce them in double precision.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nura import (
    Application,
    DomainError,
    LogarithmicUtility,
    ProtocolParams,
    ScenarioConfig,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    aggregate_user_utility,
    scenario_from_dict,
    scenario_to_dict,
)
from nura.utility import NEG_INF

SIG_STEEP = SigmoidalUtility(a=3.0, b=20.0)
SIG_SHALLOW = SigmoidalUtility(a=1.0, b=30.0)
LOG_FAST = LogarithmicUtility(k=3.0, r_max=100.0)
LOG_SLOW = LogarithmicUtility(k=0.5, r_max=100.0)

REL = 1e-12


def assert_close(value, reference, rel=REL):
    assert value == pytest.approx(reference, rel=rel, abs=0.0)


# ---------------------------------------------------------------------------
# frozen high-precision values


@pytest.mark.parametrize(
    "utility, rate, reference",
    [
        (SIG_STEEP, 25.0, 0.9999996940977730743753),
        (SIG_STEEP, 1.0, 1.671227094797346445571e-25),
        (SIG_SHALLOW, 5.0, 1.379436763508404344524e-11),
        (LOG_FAST, 50.0, 0.8791278955665481050692),
        (LOG_FAST, 150.0, 1.070851456515812585189),  # past r_max: smooth growth
        (LOG_SLOW, 8.0, 0.4093360343955374406657),
    ],
)
def test_evaluate_frozen(utility, rate, reference):
    assert_close(utility.evaluate(rate), reference)


@pytest.mark.parametrize(
    "utility, rate, reference",
    [
        (SIG_STEEP, 1.0, -57.05106918094270158654),
        (SIG_STEEP, 19.0, -3.048587351573742058759),
        (SIG_SHALLOW, 5.0, -25.00676074946337650169),
        (LOG_FAST, 50.0, -0.1288248906678696220843),
    ],
)
def test_log_evaluate_frozen(utility, rate, reference):
    assert_close(utility.log_evaluate(rate), reference)


@pytest.mark.parametrize(
    "utility, rate, reference",
    [
        (SIG_STEEP, 19.0, 2.857722380467299657332),
        (SIG_STEEP, 10.0, 3.0),  # mid plateau: exactly the slope parameter
        (SIG_STEEP, 21.0, 0.1422776195327003426344),
        (SIG_SHALLOW, 5.0, 1.006783654892416287221),
        (LOG_SLOW, 8.0, 0.06213349345596118107072),
    ],
)
def test_dlog_evaluate_frozen(utility, rate, reference):
    assert_close(utility.dlog_evaluate(rate), reference)


def test_sigmoid_midpoint_is_half():
    # c_norm * (1/2 - d_norm) = (1 - e^{-ab}) / 2; for ab = 60 the
    # correction is ~4e-27, so the result is 0.5 up to rounding of the
    # exp/expm1 pair (a couple of ulps).
    assert SIG_STEEP.evaluate(20.0) == pytest.approx(0.5, abs=5e-16)
    assert SIG_SHALLOW.evaluate(30.0) == pytest.approx(0.5, abs=1e-13)


# ---------------------------------------------------------------------------
# normalization and saturation branches


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_zero_rate_normalization(utility):
    assert utility.evaluate(0.0) == 0.0
    assert utility.log_evaluate(0.0) == NEG_INF


@pytest.mark.parametrize("utility", [LOG_FAST, LOG_SLOW])
def test_logarithmic_saturation(utility):
    assert abs(utility.evaluate(utility.r_max) - 1.0) < 1e-12


def test_sigmoid_deep_saturation():
    q = SigmoidalUtility(a=2.0, b=5.0)
    assert q.evaluate(300.0) == 1.0
    # true ln U(300) is about -5.8e-257: zero to any practical tolerance
    # but still resolved instead of flushed to -0.0
    assert -1e-250 < q.log_evaluate(300.0) <= 0.0
    slope = q.dlog_evaluate(360.0)  # exponent 710 overflows exp(x) naively
    assert 0.0 < slope < 1e-300


def test_sigmoid_large_argument_left_branch():
    # a*r > 700 while r is still left of the midpoint.
    q = SigmoidalUtility(a=3.0, b=300.0)
    assert q.log_evaluate(250.0) == pytest.approx(-150.0, abs=1e-9)
    assert q.evaluate(250.0) == pytest.approx(7.175095973164411e-66, rel=1e-9)


# ---------------------------------------------------------------------------
# internal consistency: exp(ln U) = U, d/dr ln U matches finite differences


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_log_evaluate_consistent_with_evaluate(utility):
    for rate in [0.25, 1.0, 5.0, 15.0, 27.5, 40.0, 90.0]:
        value = utility.evaluate(rate)
        assert math.exp(utility.log_evaluate(rate)) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_dlog_matches_finite_difference(utility):
    for rate in [0.5, 2.0, 8.0, 18.0, 22.0, 31.0, 55.0]:
        h = 1e-6 * max(rate, 1.0)
        numeric = (utility.log_evaluate(rate + h) - utility.log_evaluate(rate - h)) / (
            2.0 * h
        )
        assert utility.dlog_evaluate(rate) == pytest.approx(numeric, rel=1e-5)


def _assert_slope_matches_central_difference(utility, rate):
    # h stays below the curve's own scale; rounding of ln (ln U)' costs
    # about 1e-15 / h, the O(h^2) truncation far less than 1e-4.
    h = 1e-5 * min(rate, 1.0)
    numeric = (
        math.log(utility.dlog_evaluate(rate + h)) - math.log(utility.dlog_evaluate(rate - h))
    ) / (2.0 * h)
    assert utility.dlog_and_slope(rate)[1] == pytest.approx(numeric, rel=1e-4, abs=1e-14 / h)


@given(
    utility=st.one_of(
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
    ),
    log10_rate=st.floats(-4.0, 2.5),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_dlog_slope_matches_central_difference(utility, log10_rate):
    rate = 10.0**log10_rate
    if isinstance(utility, SigmoidalUtility):
        # keep (ln U)' a normal float: it underflows past a(r - b) = 708
        assume(utility.a * (rate - utility.b) < 705.0)
    _assert_slope_matches_central_difference(utility, rate)


@pytest.mark.parametrize("rate", [69.9, 70.1, 70.4, 1e-4, 1e-3])
def test_dlog_slope_saturation_branch_and_small_rates(rate):
    # a = 10, b = 1e-3: a(r - b) crosses the deep-saturation cutoff of 700
    # between 69.9 and 70.1, where the slope becomes exactly -a.
    utility = SigmoidalUtility(a=10.0, b=1e-3)
    _assert_slope_matches_central_difference(utility, rate)
    if rate > 70.0:
        assert utility.dlog_and_slope(rate)[1] == -10.0


@pytest.mark.parametrize("utility", [SIG_STEEP, LOG_FAST])
def test_dlog_slope_rejects_nonpositive_rate(utility):
    with pytest.raises(DomainError):
        utility.dlog_and_slope(0.0)


def _separate_dlog_slope(utility, rate):
    """d/dr ln (ln U)'(r) as a method of its own computed it before the
    fused kernel, every exponential and constant recomputed per call."""
    if isinstance(utility, SigmoidalUtility):
        x = utility.a * (rate - utility.b)
        if x > 700.0:
            return -utility.a
        e_x = math.exp(x)
        e_ar = math.exp(-utility.a * rate)
        denom = e_x + 1.0 - math.exp(-utility.a * utility.b) - e_ar
        if denom <= 0.0:
            return -math.inf
        return -utility.a * (e_x + e_ar) / denom
    kr = utility.k * rate
    log_term = math.log1p(kr)
    if log_term <= 0.0:
        return -math.inf
    return -utility.k / (1.0 + kr) * (1.0 + 1.0 / log_term)


@given(
    utility=st.one_of(
        st.builds(SigmoidalUtility, a=st.floats(0.05, 10.0), b=st.floats(1e-3, 300.0)),
        st.builds(
            LogarithmicUtility,
            k=st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
            r_max=st.floats(1.0, 500.0),
        ),
    ),
    log10_rate=st.floats(-320.0, 4.0),
)
@example(SigmoidalUtility(a=10.0, b=1e-3), 2.0)  # a(r - b) > 700: deep saturation
@example(SIG_STEEP, -20.0)  # e^{-ar} rounds to 1: the denominator collapses to 0
@example(SIG_STEEP, -10.0)  # a r = 3e-10: the denominator cancels but stays positive
@example(LogarithmicUtility(k=1e-6, r_max=10.0), -323.3)  # k r underflows to 0
@example(LogarithmicUtility(k=1.0, r_max=10.0), -323.3)  # k / denormal overflows to inf
@example(LogarithmicUtility(k=1e-6, r_max=10.0), -300.0)  # tiny but resolved
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fused_kernel_is_dlog_evaluate_and_the_separate_slope(utility, log10_rate):
    rate = 10.0**log10_rate
    assume(rate > 0.0)
    dlog, slope = utility.dlog_and_slope(rate)
    assert dlog == utility.dlog_evaluate(rate)  # bit-equal, inf included
    assert slope == _separate_dlog_slope(utility, rate)
    assert slope < 0.0 <= dlog  # (ln U)' underflows past a(r - b) = 745


@pytest.mark.parametrize(
    "utility, changes",
    [(SIG_STEEP, {"b": 25.0}), (SIG_SHALLOW, {"a": 0.5}), (LOG_FAST, {"k": 0.5}),
     (LOG_SLOW, {"r_max": 40.0})],
)
def test_cached_constants_follow_replace_and_stay_out_of_equality(utility, changes):
    params = {field.name: getattr(utility, field.name) for field in fields(utility)}
    changed = replace(utility, **changes)
    fresh = type(utility)(**{**params, **changes})
    rates = [1e-3, 0.5, 20.0, 60.0, 400.0]
    for rate in rates:
        assert changed.dlog_and_slope(rate) == fresh.dlog_and_slope(rate)
        assert changed.dlog_evaluate(rate) == fresh.dlog_evaluate(rate)
        assert changed.log_evaluate(rate) == fresh.log_evaluate(rate)
    assert any(changed.log_evaluate(rate) != utility.log_evaluate(rate) for rate in rates)
    back = replace(changed, **params)
    assert back == utility and hash(back) == hash(utility) and repr(back) == repr(utility)
    assert set(params) == ({"a", "b"} if isinstance(utility, SigmoidalUtility) else {"k", "r_max"})


def test_cached_constants_survive_the_scenario_round_trip():
    apps = tuple(Application(utility, 0.25) for utility in (SIG_STEEP, SIG_SHALLOW, LOG_FAST,
                                                             LOG_SLOW))
    user = UserProfile("u", UserClass.REGULAR, beta=1.0, apps=apps)
    config = ScenarioConfig(users=(user,), capacity=50.0, protocol=ProtocolParams())
    tree = scenario_to_dict(config)
    again = scenario_from_dict(tree)
    assert again == config and scenario_to_dict(again) == tree
    for app, original in zip(again.users[0].apps, apps):
        assert app.utility.dlog_and_slope(7.5) == original.utility.dlog_and_slope(7.5)
        assert app.utility.log_evaluate(7.5) == original.utility.log_evaluate(7.5)


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_log_concavity_on_grid(utility):
    """d/dr ln U must be nonincreasing: 200 geometrically spaced rates."""
    lo, hi = 1e-3, 4.0 * utility.rate_scale
    ratio = (hi / lo) ** (1.0 / 199.0)
    rates = [lo * ratio**i for i in range(200)]
    slopes = [utility.dlog_evaluate(r) for r in rates]
    for left, right in zip(slopes, slopes[1:]):
        assert right <= left * (1.0 + 1e-12)


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_monotone_increasing(utility):
    rates = [0.1 * i for i in range(1, 400)]
    values = [utility.evaluate(r) for r in rates]
    for left, right in zip(values, values[1:]):
        assert right >= left


# ---------------------------------------------------------------------------
# property checks over random parameterizations


@given(
    a=st.floats(0.05, 5.0),
    b=st.floats(0.5, 80.0),
)
@settings(max_examples=60, deadline=None)
def test_sigmoid_midpoint_closed_form(a, b):
    u = SigmoidalUtility(a=a, b=b)
    expected = (1.0 - math.exp(-a * b)) / 2.0
    assert u.evaluate(b) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@given(
    k=st.floats(0.01, 20.0),
    r_max=st.floats(1.0, 500.0),
    frac=st.floats(0.01, 0.99),
)
@settings(max_examples=60, deadline=None)
def test_logarithmic_between_zero_and_one(k, r_max, frac):
    u = LogarithmicUtility(k=k, r_max=r_max)
    value = u.evaluate(frac * r_max)
    assert 0.0 < value < 1.0


@given(
    a=st.floats(0.1, 4.0),
    b=st.floats(1.0, 60.0),
    rate=st.floats(0.01, 200.0),
)
@settings(max_examples=100, deadline=None)
def test_sigmoid_value_in_unit_interval(a, b, rate):
    value = SigmoidalUtility(a=a, b=b).evaluate(rate)
    assert 0.0 < value <= 1.0


# ---------------------------------------------------------------------------
# parameter and argument validation


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SigmoidalUtility(a=0.0, b=20.0),
        lambda: SigmoidalUtility(a=3.0, b=-1.0),
        lambda: SigmoidalUtility(a=math.nan, b=20.0),
        lambda: LogarithmicUtility(k=0.0, r_max=100.0),
        lambda: LogarithmicUtility(k=0.5, r_max=math.inf),
    ],
)
def test_bad_parameters_rejected(factory):
    with pytest.raises(DomainError):
        factory()


@pytest.mark.parametrize("utility", [SIG_STEEP, LOG_FAST])
def test_negative_rate_rejected(utility):
    with pytest.raises(DomainError):
        utility.evaluate(-0.1)
    with pytest.raises(DomainError):
        utility.log_evaluate(-0.1)
    with pytest.raises(DomainError):
        utility.dlog_evaluate(0.0)


def test_application_weight_bounds():
    Application(utility=LOG_FAST, weight=0.0)
    Application(utility=LOG_FAST, weight=1.0)
    with pytest.raises(DomainError):
        Application(utility=LOG_FAST, weight=1.2)
    with pytest.raises(DomainError):
        Application(utility=LOG_FAST, weight=-0.1)
    with pytest.raises(DomainError):
        Application(utility=LOG_FAST, weight=0.5, target_rate=-3.0)


def test_user_profile_validation():
    app = Application(utility=SIG_STEEP, weight=1.0, target_rate=20.0)
    user = UserProfile("u", UserClass.VIP, beta=1.0, apps=[app])
    assert user.is_vip and user.apps == (app,)
    assert user.total_target == 20.0
    with pytest.raises(DomainError):
        UserProfile("", UserClass.VIP, beta=1.0, apps=[app])
    with pytest.raises(DomainError):
        UserProfile("u", UserClass.VIP, beta=0.0, apps=[app])
    with pytest.raises(DomainError):
        UserProfile("u", UserClass.VIP, beta=1.0, apps=[])


# ---------------------------------------------------------------------------
# aggregate utility


def _two_app_user(weights, targets=(None, None)):
    apps = (
        Application(utility=SIG_STEEP, weight=weights[0], target_rate=targets[0]),
        Application(utility=LOG_FAST, weight=weights[1], target_rate=targets[1]),
    )
    return UserProfile("u", UserClass.VIP, beta=1.0, apps=apps)


def test_aggregate_is_weighted_geometric_mean():
    user = _two_app_user((0.5, 0.5))
    value = aggregate_user_utility(user, [25.0, 50.0])
    expected = math.sqrt(SIG_STEEP.evaluate(25.0) * LOG_FAST.evaluate(50.0))
    assert value == pytest.approx(expected, rel=1e-12)


def test_aggregate_zero_weight_ignores_starved_app():
    user = _two_app_user((0.0, 1.0))
    value = aggregate_user_utility(user, [0.0, 50.0])
    assert value == pytest.approx(LOG_FAST.evaluate(50.0), rel=1e-12)


def test_aggregate_starved_weighted_app_collapses_to_zero():
    user = _two_app_user((0.5, 0.5))
    assert aggregate_user_utility(user, [0.0, 50.0]) == 0.0


def test_aggregate_includes_target_offset():
    user = _two_app_user((1.0, 0.0), targets=(20.0, None))
    value = aggregate_user_utility(user, [5.0, 0.0])
    assert value == pytest.approx(SIG_STEEP.evaluate(25.0), rel=1e-12)


def test_aggregate_rate_count_mismatch():
    user = _two_app_user((0.5, 0.5))
    with pytest.raises(Exception):
        aggregate_user_utility(user, [1.0])
