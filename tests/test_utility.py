"""Utility primitives: values, derivatives, shape, and edge branches.

Reference numbers are frozen from 50-digit mpmath evaluations of the
defining formulas; the library must reproduce them in double precision.
"""

import math
import pickle
import warnings
from dataclasses import fields, replace

import mpmath
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
    app_rate_at_price,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    user_rate_at_price,
)
from nura.price_response import bidders
from nura.utility import NEG_INF, CaseFlag, RegimeTable, regime_table
from test_invariance import _fuzz_trees

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


@pytest.mark.parametrize(
    "a, b, rate", [(0.1, 5.0, 1e-8), (0.1, 20.0, 1e-10), (1.0, 0.5, 1e-12), (1.0, 0.5, 1e-20)]
)
def test_sigmoid_dlog_keeps_relative_accuracy_at_small_rates(a, b, rate):
    # The denominator e^{a(r-b)} + 1 - e^{-ab} - e^{-ar} cancels as a r -> 0;
    # 50 digits leave at least 30 after the cancellation.
    with mpmath.workdps(50):
        a_, b_, r_ = (mpmath.mpf(v) for v in (a, b, rate))
        e_ab = mpmath.exp(-a_ * b_)
        denom = mpmath.exp(a_ * (r_ - b_)) + 1 - e_ab - mpmath.exp(-a_ * r_)
        reference = float(a_ * (1 + e_ab) / denom)
    assert_close(SigmoidalUtility(a=a, b=b).dlog_evaluate(rate), reference, rel=1e-14)


@pytest.mark.parametrize(
    "a, b, rate",
    [(1e-300, 20.0, 25.0), (1e-300, 20.0, 1e6), (0.01, 10.0, 50.0), (0.01, 10.0, 69.0),
     (0.01, 10.0, 70.0), (3.0, 20.0, 25.0)],
)
def test_sigmoid_log_evaluate_past_the_inflection_matches_mpmath(a, b, rate):
    # ln(1 - e^{-ar}) past b: log1p(-exp(-ar)) raised ValueError once
    # e^{-ar} rounded to 1 (a = 1e-300); a r = 0.5, 0.69 and 0.7 check
    # both sides of the switch at a r = ln 2.
    with mpmath.workdps(50):
        a_, b_, r_ = (mpmath.mpf(v) for v in (a, b, rate))
        reference = float(
            mpmath.log(-mpmath.expm1(-a_ * r_)) - mpmath.log1p(mpmath.exp(-a_ * (r_ - b_)))
        )
    assert_close(SigmoidalUtility(a=a, b=b).log_evaluate(rate), reference, rel=1e-14)


@pytest.mark.parametrize(
    "utility, rate",
    [(SigmoidalUtility(a=1e-300, b=20.0), 1e-300), (SigmoidalUtility(a=1e-20, b=5.0), 1e-305),
     (LogarithmicUtility(k=1e-300, r_max=100.0), 1e-300),
     (LogarithmicUtility(k=1e-20, r_max=10.0), 1e-305)],
)
def test_dlog_where_the_rate_product_underflows_matches_mpmath(utility, rate):
    # a r or k r rounds to 0, where (ln U)' is 1 / r to leading order; it was inf.
    with mpmath.workdps(50):
        r_ = mpmath.mpf(rate)
        if isinstance(utility, SigmoidalUtility):
            a_, b_ = mpmath.mpf(utility.a), mpmath.mpf(utility.b)
            e_ab = mpmath.exp(-a_ * b_)
            reference = a_ * (1 + e_ab) / (e_ab * mpmath.expm1(a_ * r_) - mpmath.expm1(-a_ * r_))
        else:
            k_ = mpmath.mpf(utility.k)
            reference = k_ / ((1 + k_ * r_) * mpmath.log1p(k_ * r_))
        reference = float(reference)
    assert_close(utility.dlog_evaluate(rate), reference, rel=1e-15)
    assert utility.dlog_slope(rate) == -1.0 / rate


@pytest.mark.parametrize("a, b, rate", [(1e-300, 20.0, 1e-300), (1e-300, 20.0, 2.5e-301),
                                        (1e-20, 5.0, 1e-305), (1e-20, 5.0, 1e-300)])
def test_sigmoid_log_evaluate_where_a_rate_leaves_the_normal_range_matches_mpmath(a, b, rate):
    # a r is 0 or subnormal (the last case), where ln U is finite; it was
    # -inf at 0, and lost digits with those of a r when subnormal.
    with mpmath.workdps(50):
        a_, b_, r_ = (mpmath.mpf(v) for v in (a, b, rate))
        reference = float(-a_ * b_ + mpmath.log(mpmath.expm1(a_ * r_))
                          - mpmath.log1p(mpmath.exp(a_ * (r_ - b_))))
    assert_close(SigmoidalUtility(a=a, b=b).log_evaluate(rate), reference, rel=1e-14)


# k r from 10^305.5 up: the rate log-uniform from there (or 1e-300) to 1e300.
@given(log10_k=st.floats(6.0, 300.0), part=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_log_dlog_where_its_denominator_overflows_matches_mpmath(log10_k, part):
    """Past k r = 2.56e305, (1 + k r) ln(1 + k r) overflows, and the method
    returned 0.0 where (ln U)' is a normal float."""
    least = max(305.5 - log10_k, -300.0)
    rate = 10.0 ** (least + part * (300.0 - least))
    utility = LogarithmicUtility(k=10.0**log10_k, r_max=10.0**-log10_k)
    with mpmath.workdps(50):
        k_, r_ = mpmath.mpf(utility.k), mpmath.mpf(rate)
        reference = float(k_ / ((1 + k_ * r_) * mpmath.log1p(k_ * r_)))
    assert_close(utility.dlog_evaluate(rate), reference, rel=1e-12)


def _exact_log_curve(k, r_max, rate):
    """The log curve's evaluate, log_evaluate, dlog_evaluate and dlog_slope
    at the rate, from their definitions in 60-digit mpmath, each with the
    scale its error is measured against: its own size, or for log_evaluate,
    a difference of two logs that cancel near r_max, the larger of those."""
    with mpmath.workdps(60):
        k_, r_max_, r_ = (mpmath.mpf(v) for v in (k, r_max, rate))
        num, norm = mpmath.log1p(k_ * r_), mpmath.log1p(k_ * r_max_)
        values = {"evaluate": num / norm, "log_evaluate": mpmath.log(num) - mpmath.log(norm),
                  "dlog_evaluate": k_ / ((1 + k_ * r_) * num),
                  "dlog_slope": -k_ / (1 + k_ * r_) * (1 + 1 / num)}
        scales = {name: abs(value) for name, value in values.items()}
        scales["log_evaluate"] = max(abs(mpmath.log(num)), abs(mpmath.log(norm)))
        return {name: (float(value), float(scales[name])) for name, value in values.items()}


# k, r_max and the rate log-uniform over 1e-300..1e300, each drawn on its own.
@given(exponents=st.tuples(*[st.floats(-300.0, 300.0)] * 3))
@example(exponents=(187.1696744340588, 100.0, 130.0))  # k = 1.478e187
@example(exponents=(-200.0, 250.0, -150.0))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_log_curve_where_k_rate_leaves_the_normal_range_matches_mpmath(exponents):
    """Where k r overflowed, evaluate and log_evaluate returned inf and
    dlog_slope -0.0; where it underflowed, log_evaluate returned -inf, and
    where it or k r_max was subnormal, digits were lost. Wherever the exact
    value is a normal float, each method is within 1e-12 of it (relative to
    its scale)."""
    k, r_max, rate = (10.0**e for e in exponents)
    try:
        utility = LogarithmicUtility(k=k, r_max=r_max)
    except DomainError:  # ln(1 + k r_max) is 0 or inf in floats
        assume(False)
    for name, (reference, scale) in _exact_log_curve(k, r_max, rate).items():
        if 2.2250738585072014e-308 <= abs(reference) < math.inf:
            value = getattr(utility, name)(rate)
            assert abs(value - reference) <= 1e-12 * scale, (name, value, reference)


def test_log_curve_past_the_float_range_of_k_rate():
    # The two cells of the audit: k r = 1.478e317 overflows, k r = 1e-350 underflows.
    wide = LogarithmicUtility(k=1.478e187, r_max=1e100)
    assert wide.evaluate(1e130) == pytest.approx(1.1045, rel=1e-4, abs=0.0)
    assert wide.log_evaluate(1e130) == pytest.approx(0.09936, rel=1e-4, abs=0.0)
    assert wide.dlog_slope(1e130) == pytest.approx(-1.0014e-130, rel=1e-4, abs=0.0)
    narrow = LogarithmicUtility(k=1e-200, r_max=1e250)
    assert narrow.log_evaluate(1e-150) == pytest.approx(-810.65, rel=1e-5, abs=0.0)


def test_log_dlog_of_wide_range_draw_185_is_not_zero():
    # Draw 185's log row at the oracle's s = 300 answer; the method gave 0.0.
    value = LogarithmicUtility(k=1.478e187, r_max=1.0).dlog_evaluate(1e120)
    assert value == pytest.approx(1.414e-123, rel=1e-3, abs=0.0)


def test_sigmoid_midpoint_is_half():
    # U(b) = (1 - e^{-ab}) / 2; for ab = 60 the correction is ~4e-27, so
    # the result is 0.5 up to rounding of the exp/expm1 pair (a couple of
    # ulps).
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
    assert utility.dlog_slope(rate) == pytest.approx(numeric, rel=1e-4, abs=1e-14 / h)


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
        assert utility.dlog_slope(rate) == -10.0


@pytest.mark.parametrize("utility", [SIG_STEEP, LOG_FAST])
def test_dlog_slope_rejects_nonpositive_rate(utility):
    with pytest.raises(DomainError):
        utility.dlog_slope(0.0)


def _separate_dlog_slope(utility, rate):
    """d/dr ln (ln U)'(r) as a method of its own would compute it, every
    exponential and constant recomputed per call."""
    if isinstance(utility, SigmoidalUtility):
        x = utility.a * (rate - utility.b)
        if x > 700.0:
            return -utility.a
        e_x = math.exp(x)
        ar = utility.a * rate
        e_ab = math.exp(-utility.a * utility.b)
        e_ar = math.exp(-ar)
        if ar > 700.0:
            denom = e_x + 1.0 - e_ab - e_ar
        else:
            denom = e_ab * math.expm1(ar) - math.expm1(-ar)
        if denom <= 0.0:
            return -1.0 / rate
        return -utility.a * (e_x + e_ar) / denom
    kr = utility.k * rate
    log_term = math.log1p(kr)
    if log_term <= 0.0:
        return -1.0 / rate
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
@example(SIG_STEEP, -20.0)  # a r = 3e-20: summed directly, the denominator was 0
@example(SIG_STEEP, -10.0)  # a r = 3e-10: summed directly, the denominator cancelled
@example(SigmoidalUtility(a=10.0, b=100.0), math.log10(80.0))  # a r > 700 > a(r - b)
@example(SigmoidalUtility(a=0.1, b=5.0), -323.5)  # a r underflows to 0: so does the denominator
@example(LogarithmicUtility(k=1e-6, r_max=10.0), -323.3)  # k r underflows to 0
@example(LogarithmicUtility(k=1.0, r_max=10.0), -323.3)  # k / denormal overflows to inf
@example(LogarithmicUtility(k=1e-6, r_max=10.0), -300.0)  # tiny but resolved
@settings(max_examples=400, deadline=None, derandomize=True)
def test_dlog_slope_is_the_separate_slope(utility, log10_rate):
    rate = 10.0**log10_rate
    assume(rate > 0.0)
    slope = utility.dlog_slope(rate)
    assert slope == _separate_dlog_slope(utility, rate)
    assert slope < 0.0


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
        assert changed.dlog_slope(rate) == fresh.dlog_slope(rate)
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
        assert app.utility.dlog_slope(7.5) == original.utility.dlog_slope(7.5)
        assert app.utility.log_evaluate(7.5) == original.utility.log_evaluate(7.5)


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_cached_demand_follows_replace_and_stays_out_of_equality(utility):
    # The schedule's epochs set every application's weight by replace.
    app = Application(utility, 0.5, target_rate=20.0)
    changed = replace(app, weight=0.9)
    prices = [1e-3, 0.1, 1.0, 2.7, 10.0]
    demand = [utility.demand_curve(0.9)(price) for price in prices]
    assert [changed.demand_at(price) for price in prices] == demand
    assert [app.demand_at(price) for price in prices] != demand
    back = replace(changed, weight=0.5)
    assert back.demand_at is not app.demand_at
    assert back == app and hash(back) == hash(app) and repr(back) == repr(app)
    assert [field.name for field in fields(app)] == ["utility", "weight", "target_rate"]
    again = pickle.loads(pickle.dumps(app))
    assert again == app
    assert [again.demand_at(p) for p in prices] == [app.demand_at(p) for p in prices]


def test_offset_and_total_target_follow_replace_and_stay_out_of_equality():
    app = Application(LOG_FAST, 0.5, target_rate=20.0)
    plain = Application(SIG_STEEP, 0.5)
    user = UserProfile("u", UserClass.VIP, beta=1.0, apps=(app, plain))
    assert (app.offset, plain.offset, user.total_target, user.is_vip) == (20.0, 0.0, 20.0, True)
    retargeted = replace(app, target_rate=7.5)
    assert retargeted.offset == 7.5 and replace(retargeted, target_rate=None).offset == 0.0
    changed = replace(user, apps=(retargeted, retargeted))
    assert changed.total_target == 15.0 and changed.is_vip
    regular = replace(changed, user_class=UserClass.REGULAR, apps=(plain, plain))
    assert regular.total_target == 0.0 and not regular.is_vip
    back = replace(regular, user_class=UserClass.VIP, apps=(replace(retargeted, target_rate=20.0),
                                                           plain))
    assert back == user and hash(back) == hash(user) and repr(back) == repr(user)
    assert back.total_target == 20.0 and back.is_vip
    assert [field.name for field in fields(user)] == ["user_id", "user_class", "beta", "apps"]
    assert "offset" not in repr(app) and "total_target" not in repr(user)
    again_app, again_plain, again_user = pickle.loads(pickle.dumps((app, plain, user)))
    assert (again_app, again_app.offset, again_plain.offset) == (app, 20.0, 0.0)
    assert (again_user.total_target, again_user.is_vip, again_user) == (20.0, True, user)
    config = ScenarioConfig(users=(user,), capacity=50.0, protocol=ProtocolParams())
    apps = scenario_to_dict(config)["users"][0]["apps"]
    assert [set(node) for node in apps] == [{"utility", "weight", "target_rate"},
                                            {"utility", "weight"}]
    again = scenario_from_dict(scenario_to_dict(config)).users[0]
    assert (again.total_target, again.is_vip, again) == (20.0, True, user)


def test_a_regular_user_must_not_carry_a_target():
    # Built through the API next to a VIP (the same curve, target 1) at
    # R = 2, it made each solver fail or answer differently.
    target = Application(LogarithmicUtility(k=1.0, r_max=10.0), 1.0, target_rate=5.0)
    with pytest.raises(DomainError, match="regular user 'r' must not carry target rates"):
        UserProfile("r", UserClass.REGULAR, beta=1.0, apps=(target,))


def test_a_table_carries_its_row_limits_however_it_is_built():
    # Each row takes at most min(its cap, its user's cap, the budget).
    curve = LogarithmicUtility(k=1.0, r_max=10.0)
    v = UserProfile("v", UserClass.VIP, beta=1.0, apps=(
        Application(curve, 0.5, target_rate=4.0), Application(curve, 0.25, target_rate=1.0),
        Application(curve, 0.25)))
    w = UserProfile("w", UserClass.VIP, beta=2.0, apps=(Application(curve, 1.0, target_rate=10.0),))
    scarce = CaseFlag.TARGETS_EXCEED_CAPACITY
    table = regime_table([v, w], 6.0)
    assert (table.case, table.user_caps) == (scarce, (5.0, 10.0))
    assert table.limits == (4.0, 1.0, 5.0, 6.0)
    # As run_first_stage builds a capped user's re-clear: its own rows, its
    # share as the budget and no user cap.
    own = RegimeTable(scarce, (v,), 2.5, (math.inf,), table.rows[:3])
    assert own.limits == (2.5, 1.0, 2.5)
    assert replace(own, budget=0.5).limits == (0.5, 0.5, 0.5)
    assert "limits" not in {field.name for field in fields(own)}


def _target_total(user):
    total = 0.0  # added left to right
    for app in user.apps:
        total += 0.0 if app.target_rate is None else app.target_rate
    return total


def _restated_table(users, capacity):
    """regime_table's fields stated again from the regime's rules. Capacity
    is scarce when the VIPs' targets, added up, reach it: then only VIPs
    take part, each target caps its application's rate and, added up, its
    user's, and the budget is the capacity. Else every user takes part,
    each target is granted as its row's offset, nothing is capped, and the
    budget is what the offsets leave."""
    vip_targets = 0.0
    for user in users:
        if user.is_vip:
            vip_targets += _target_total(user)
    scarce = vip_targets >= capacity
    participants = [user for user in users if user.is_vip or not scarce]
    pairs = [(slot, user, app) for slot, user in enumerate(participants) for app in user.apps]
    rows = [(slot, app, user.beta * app.weight, 0.0 if scarce else app.offset,
             (math.inf if app.target_rate is None else app.target_rate) if scarce else math.inf)
            for slot, user, app in pairs]
    granted = 0.0  # added left to right
    for user in participants:
        granted += 0.0 if scarce else _target_total(user)
    budget = capacity - granted
    user_caps = [_target_total(user) if scarce else math.inf for user in participants]
    limits = [min(cap, user_caps[slot], budget) for slot, _, _, _, cap in rows]
    keys, curves, curve_of = [], [], []
    for _, user, app in pairs:
        if app.weight == 0.0:
            curve_of.append(None)
            continue
        key = (app.utility, app.weight, user.beta)
        if key not in keys:
            keys.append(key)
            curves.append((app, user.beta))
        curve_of.append(keys.index(key))
    case = CaseFlag.TARGETS_EXCEED_CAPACITY if scarce else CaseFlag.TARGETS_BELOW_CAPACITY
    return case, participants, rows, limits, budget, user_caps, curves, curve_of


def _reference_with_ue3_at_beta_2():
    cell = load_scenario(bundled_scenario_path())
    users = tuple(replace(user, beta=2.0) if user.user_id == "ue3" else user for user in cell.users)
    return [(users, 5.0 * step) for step in range(1, 41)]


def _fuzz_cells(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        configs = [scenario_from_dict(tree) for tree in _fuzz_trees(seed)]
    return [(config.users, config.capacity) for config in configs]


@pytest.mark.parametrize("cells", ["fuzz 3", "fuzz 7", "fuzz 8", "fuzz 11", "reference"])
def test_a_regime_table_restated_from_the_rules(cells):
    # Each regime rule is stated once, in regime_table; the table holds what they give.
    inputs = (_reference_with_ue3_at_beta_2() if cells == "reference"
              else _fuzz_cells(int(cells.split()[1])))
    cases = set()
    for users, capacity in inputs:
        table = regime_table(users, capacity)
        cases.add(table.case)
        case, participants, rows, limits, budget, user_caps, curves, curve_of = _restated_table(
            users, capacity)
        assert table.case is case
        assert table.participants == tuple(participants)
        assert [tuple(row) for row in table.rows] == rows
        assert all(row.app is want[1] for row, want in zip(table.rows, rows))
        assert table.limits == tuple(limits)
        assert table.budget == budget
        assert table.user_caps == tuple(user_caps)
        assert table.curves == tuple(curves)
        assert all(got is want for (got, _), (want, _) in zip(table.curves, curves))
        assert table.curve_of == tuple(curve_of)
    assert cases == set(CaseFlag)  # both regimes
    if cells == "reference":  # ue3 at beta 2 reads its own curves, not ue1's; ue4 reads ue2's
        assert regime_table(*inputs[-1]).curve_of == (0, 1, 2, 3, 4, 5, 2, 3)


@pytest.mark.parametrize("cells", ["fuzz 3", "fuzz 7", "fuzz 8", "fuzz 11", "reference"])
def test_each_bidders_offset_is_what_its_user_is_granted(cells):
    # bidders adds each member's rows' offsets in row order: bit for bit its
    # user's total_target under abundant capacity, and 0.0 under scarce.
    cell = load_scenario(bundled_scenario_path())
    inputs = ([(cell.users, 5.0 * step) for step in range(1, 41)] if cells == "reference"
              else _fuzz_cells(int(cells.split()[1])))
    cases = set()
    for users, capacity in inputs:
        table = regime_table(users, capacity)
        cases.add(table.case)
        scarce = table.case is CaseFlag.TARGETS_EXCEED_CAPACITY
        want = [0.0 if scarce else user.total_target for user in table.participants]
        got = [member.offset for member in bidders(table).members]
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert cases == set(CaseFlag)  # both regimes


def test_cached_demand_survives_the_scenario_round_trip():
    apps = tuple(Application(utility, 0.25) for utility in (SIG_STEEP, SIG_SHALLOW, LOG_FAST,
                                                             LOG_SLOW))
    user = UserProfile("u", UserClass.REGULAR, beta=1.0, apps=apps)
    config = ScenarioConfig(users=(user,), capacity=50.0, protocol=ProtocolParams())
    again = scenario_from_dict(scenario_to_dict(config))
    for app, original in zip(again.users[0].apps, apps):
        for price in (1e-3, 0.05, 0.75, 4.0):
            assert app.demand_at(price) == original.demand_at(price)


def test_a_weightless_application_builds_no_demand_and_demands_nothing():
    app = Application(LOG_FAST, 0.0)
    assert app.demand_at is None and replace(app, weight=0.5).demand_at is not None
    assert replace(Application(SIG_STEEP, 0.5), weight=0.0).demand_at is None
    assert app_rate_at_price(app, 1e-6) == 0.0
    user = UserProfile("u", UserClass.REGULAR, beta=1.0, apps=(app, Application(LOG_SLOW, 1.0)))
    assert user_rate_at_price(regime_table([user], 1.0), 0, 0.1) == app_rate_at_price(
        user.apps[1], 0.1)


@pytest.mark.parametrize(
    "utility, weight, price",
    [(LogarithmicUtility(k=1e-300, r_max=100.0), 0.5, 1e300),
     (LogarithmicUtility(k=1e-20, r_max=10.0), 1.0, 1e300),
     (SigmoidalUtility(a=1e-300, b=20.0), 0.5, 1e300),
     (SigmoidalUtility(a=1e-20, b=5.0), 0.25, 1e290),
     # w a (1 + e^{-ab}) itself underflows to 0, and its log is not taken
     (SigmoidalUtility(a=1e-300, b=20.0), 1e-30, 1e-300)],
)
def test_demand_where_the_closed_form_underflows_is_weight_over_price(utility, weight, price):
    # z = k w / p (log) or M = w a (1 + e^{-ab}) / p (sigmoid) underflows,
    # and the demand was 0. Near rate 0, (ln U)' is 1 / r to within
    # rounding, so the demand is w / p, a normal float here. The
    # reference solves the same roots (Lambert W, the quadratic in
    # t = e^{ar} - 1) in mpmath, which does not underflow.
    rate = utility.demand_curve(weight)(price)
    assert rate == weight / price and rate >= 2.2250738585072014e-308
    with mpmath.workdps(50):
        w_, p_ = mpmath.mpf(weight), mpmath.mpf(price)
        if isinstance(utility, SigmoidalUtility):
            a_, b_ = mpmath.mpf(utility.a), mpmath.mpf(utility.b)
            e_ab = mpmath.exp(-a_ * b_)
            m_ = w_ * a_ * (1 + e_ab) / p_
            half_b = (1 + e_ab) * (p_ - a_ * w_) / (2 * p_)
            reference = mpmath.log1p(m_ / (half_b + mpmath.sqrt(half_b**2 + e_ab * m_))) / a_
        else:
            k_ = mpmath.mpf(utility.k)
            reference = mpmath.expm1(mpmath.lambertw(k_ * w_ / p_).real) / k_
        reference = float(reference)
    assert_close(rate, reference, rel=1e-15)


@pytest.mark.parametrize(
    "utility, weight, price, deep",
    [(SigmoidalUtility(a=10.0, b=5.0), 1.0, 1e-305, True),
     # M = w a (1 + e^{-ab}) / p just past e^700 and just short of it
     (SigmoidalUtility(a=10.0, b=5.0), 1.0, 9.8e-304, True),
     (SigmoidalUtility(a=10.0, b=5.0), 1.0, 9.9e-304, False),
     (SigmoidalUtility(a=0.5, b=40.0), 0.3, 1.45e-305, True),
     (SigmoidalUtility(a=0.5, b=40.0), 0.3, 1.5e-305, False)],
)
def test_sigmoid_demand_on_both_sides_of_deep_saturation_matches_mpmath(
    utility, weight, price, deep
):
    # Past M = e^700 the demand is b + ln M / a, the deep-saturation form
    # of (ln U)'; short of it, the root of the quadratic in e^{ar} - 1.
    # The reference solves w (ln U)'(r) = p in mpmath at 60 digits, in logs.
    a, b = utility.a, utility.b
    assert (weight * a * (1.0 + math.exp(-a * b)) / price > math.exp(700.0)) is deep
    rate = utility.demand_curve(weight)(price)
    with mpmath.workdps(60):
        a_, b_, w_, p_ = (mpmath.mpf(v) for v in (a, b, weight, price))
        e_ab = mpmath.exp(-a_ * b_)
        scaled = w_ * a_ * (1 + e_ab)

        def excess(r):
            denom = mpmath.exp(a_ * (r - b_)) + 1 - e_ab - mpmath.exp(-a_ * r)
            return mpmath.log(scaled / denom) - mpmath.log(p_)

        reference = float(mpmath.findroot(excess, b_ + mpmath.log(scaled / p_) / a_))
    assert_close(rate, reference, rel=1e-15)


@pytest.mark.parametrize(
    "weight, price, reference",
    # past the plateau price a w, r = b + ln(...) / a; at it, r = b / 2 + ln(M) / 2a
    [(0.5, 0.4, 1e160), (1.0, 1e160, 0.5e160)],
)
def test_sigmoid_demand_where_a_times_b_overflows_is_finite(weight, price, reference):
    # ln t = a b + ln(...) overflowed to inf, and the demand with it.
    rate = SigmoidalUtility(a=1e160, b=1e160).demand_curve(weight)(price)
    assert rate == pytest.approx(reference, rel=1e-15)


@pytest.mark.parametrize("utility", [SIG_STEEP, SIG_SHALLOW, LOG_FAST, LOG_SLOW])
def test_log_concavity_on_grid(utility):
    """d/dr ln U must be nonincreasing: 200 geometrically spaced rates."""
    scale = utility.b if isinstance(utility, SigmoidalUtility) else utility.r_max
    lo, hi = 1e-3, 4.0 * scale
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
        # a (1 + e^{-ab}) overflows: (ln U)'(1) was nan
        lambda: SigmoidalUtility(a=1e308, b=1e-310),
        lambda: Application(utility="sigmoidal", weight=1.0),
        lambda: UserProfile("u", "vip", beta=1.0, apps=(Application(LOG_FAST, 1.0),)),
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
