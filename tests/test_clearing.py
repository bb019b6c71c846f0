"""The exact price clearing that ends both stages, against the oracle."""

import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nura import (
    Application,
    LogarithmicUtility,
    ProtocolParams,
    ScenarioConfig,
    SigmoidalUtility,
    SolverError,
    UserClass,
    UserProfile,
    centralized_solve,
    run_first_stage,
    run_once,
    scenario_from_dict,
)

CURVATURES = (0.1, 0.5, 1, 3, 10)
BETAS = (0.5, 1, 2, 5)


def test_reference_sweep_matches_the_oracle_to_1e_6(sweep, oracle_solutions):
    """Every user and app rate within 1e-6 * max(|oracle|, 1)."""
    for record in sweep:
        reference = oracle_solutions[record.capacity]
        for uid, rate in record.user_rates.items():
            want = reference.user_rates[uid]
            assert abs(rate - want) <= 1e-6 * max(abs(want), 1.0), (record.capacity, uid)
            for got, want in zip(record.app_rates[uid], reference.app_rates[uid]):
                assert abs(got - want) <= 1e-6 * max(abs(want), 1.0), (record.capacity, uid)


def test_demand_that_saturates_below_the_budget_raises():
    # One sigmoid at R = 190.87: the optimum gives it everything, at a
    # price near e^-1674, far below any float price floor.
    app = Application(SigmoidalUtility(a=10.0, b=23.425238004044363), weight=1.0)
    user = UserProfile("u0", UserClass.VIP, beta=1.0, apps=(app,))
    with pytest.raises(SolverError, match="saturates"):
        run_first_stage([user], 190.8719859549913)


def test_sigmoids_jumping_at_one_price_split_like_the_oracle():
    # beta * w * a = 5 for both sigmoids, so both demands jump across one
    # relative price change below float resolution; a common top-up over
    # a 1e-10-wide bracket gave A 24.04 and B 15.79 (tolerance 0.2).
    def regular(uid, beta, utility):
        return UserProfile(uid, UserClass.REGULAR, beta, (Application(utility, 1.0),))

    users = (
        regular("A", 5.0, SigmoidalUtility(a=1.0, b=48.751019490492524)),
        regular("B", 0.5, SigmoidalUtility(a=10.0, b=37.65431482868934)),
        regular("C", 1.0, LogarithmicUtility(k=3.0, r_max=127.0)),
    )
    record = run_once(ScenarioConfig(users=users, capacity=40.0, protocol=ProtocolParams()))
    reference = centralized_solve(users, 40.0)
    for uid, rate in record.user_rates.items():
        assert rate == pytest.approx(reference.user_rates[uid], abs=0.2)


@st.composite
def _app(draw, vip):
    if draw(st.booleans()):
        utility = {"kind": "sigmoidal", "a": draw(st.sampled_from(CURVATURES)),
                   "b": draw(st.floats(5, 60))}
    else:
        utility = {"kind": "logarithmic", "k": draw(st.sampled_from(CURVATURES)),
                   "r_max": draw(st.floats(20, 200))}
    app = {"utility": utility}
    if vip and draw(st.booleans()):
        app["target_rate"] = draw(st.floats(1, 30))
    return app


@st.composite
def _user(draw, index):
    vip = draw(st.booleans())
    apps = draw(st.lists(_app(vip), min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=len(apps),
                        max_size=len(apps)))
    assume(sum(raw) > 0.0)
    for app, value in zip(apps, raw):
        app["weight"] = value / sum(raw)
    return {"id": f"u{index}", "class": "vip" if vip else "regular",
            "beta": draw(st.sampled_from(BETAS)), "apps": apps}


@st.composite
def _cell(draw):
    count = draw(st.integers(1, 5))
    users = [draw(_user(index)) for index in range(count)]
    return {"description": "drawn", "R": draw(st.floats(5, 400)), "users": users}


# A log app of weight 1.49e-215 beside one of weight 1: its demand is
# about w / p, far below any tolerance, and must come out as such.
@example(tree={"description": "vanishing weight", "R": 5.0, "users": [
    {"id": "u0", "class": "regular", "beta": 0.5, "apps": [
        {"utility": {"kind": "logarithmic", "k": 0.1, "r_max": 20.0}, "weight": 1.0},
        {"utility": {"kind": "logarithmic", "k": 0.1, "r_max": 20.0}, "weight": 1.49e-215},
    ]}]})
@given(tree=_cell())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_drawn_cells_match_the_oracle_or_name_saturation(tree):
    """The ranges of the benchmark's fuzz cells: 1-5 users, VIP or not,
    1-3 apps each, sigmoid or log, a VIP app with or without a target,
    curvatures, beta and R as the fuzz generator draws them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        config = scenario_from_dict(tree)
    try:
        record = run_once(config)  # any other error, ContractError included, fails
    except SolverError as exc:
        assert "saturates" in str(exc)
        return
    reference = centralized_solve(config.users, config.capacity)
    tol = max(0.1, 0.005 * config.capacity)
    for uid, rate in record.user_rates.items():
        assert abs(rate - reference.user_rates[uid]) <= tol
        assert abs(sum(record.app_rates[uid]) - rate) <= 1e-6 * max(rate, 1.0)
        for got, want in zip(record.app_rates[uid], reference.app_rates[uid]):
            assert abs(got - want) <= tol
