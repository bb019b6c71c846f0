"""The exact price clearing that ends both stages, against the oracle."""

import random
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wide_trees import wide_tree

from nura import (
    Application,
    LogarithmicUtility,
    NuraError,
    ProtocolParams,
    ScenarioConfig,
    SigmoidalUtility,
    SolverError,
    UserClass,
    UserProfile,
    ValidationError,
    centralized_solve,
    intra_ue,
    protocol,
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


def _clearing_trials(monkeypatch, run, prices=None):
    """run()'s result and the demand trials of each clear_price call it
    makes, its app_rate_at_price calls over its rows; prices, if given,
    collects the price / beta of every call."""
    calls, trials = [0], []

    def counted(app, price, limit, case, original=intra_ue.app_rate_at_price):
        calls[0] += 1
        if prices is not None:
            prices.append(price)
        return original(app, price, limit, case)

    def clearing(table, price, original=intra_ue.clear_price):
        calls[0] = 0
        cleared = original(table, price)
        trials.append(calls[0] / len(table.rows))
        return cleared

    monkeypatch.setattr(intra_ue, "app_rate_at_price", counted)
    monkeypatch.setattr(intra_ue, "clear_price", clearing)
    monkeypatch.setattr(protocol, "clear_price", clearing)
    return run(), trials


@pytest.mark.parametrize("capacity", [10.0, 15.0, 60.0, 65.0, 85.0])
def test_a_clearing_next_to_a_plateau_price_takes_few_trials(cell, capacity, monkeypatch):
    """These cells clear within 6e-7 of a sigmoid's plateau price (1.5 or
    0.9), where the total is close to a step in ln p. Newton steps in ln p
    and bisection took 24, 20, 21, 32 and 11 trials to close them, and
    secant steps in s = asinh((p - p0) / d) 8, 10, 8, 9 and 7. Newton
    steps in s, after one bisection in s at the first step rejected in a
    closed bracket, take 5, 7, 5, 7 and 5."""
    _, trials = _clearing_trials(monkeypatch, lambda: run_first_stage(cell.users, capacity))
    assert len(trials) == 1 and trials[0] <= 7, trials


def test_a_plateau_in_the_bracket_far_from_the_root_keeps_newtons_landing(cell, monkeypatch):
    """At R = 50 ue1's demand passes its rate, so its own rows are cleared
    again: budget 20 from the final price 0.49, root 1.094, with its
    sigmoid's plateau price 1.5 inside the bracket [0.49, 1.79]. There s
    resolves prices less finely than ln p (1.5 > 2 lo), so the one step
    rejected there bisects in ln p, and Newton steps in ln p land on the
    root in 7 trials; stepping in s as soon as the bracket held 1.5 took
    11."""
    prices = []
    first, trials = _clearing_trials(
        monkeypatch, lambda: run_first_stage(cell.users, 50.0), prices)
    assert len(trials) == 2 and trials[1] <= 7, trials
    prices = prices[-round(2 * trials[1]):]  # the second clearing's, over ue1's 2 rows
    assert min(prices) < 1.1 and max(prices) > 1.5  # the bracket held the plateau
    assert sum(first.app_rates["ue1"]) == pytest.approx(first.rates["ue1"], rel=1e-12, abs=0)


@pytest.mark.parametrize("capacity", [60.0, 62.5, 65.0])
def test_a_clearing_takes_the_plateau_its_bracket_moves_onto(cell, capacity, monkeypatch):
    """With ue2's beta at 2 its plateau price is 1.8, above ue1's and ue3's
    1.5, next to which these cells clear. The clearing first bisects in s
    around 1.8, and the bracket falls to [1.49997, 1.800001]. Kept around
    1.8, bisection in s crept onto 1.5 in 35, 40 and 45 trials (Newton
    steps and bisection in ln p took 37, 35 and 34). Taking 1.5, nearest
    where the line through the bracket's totals in ln p meets the budget,
    closes them in 5, 7 and 7."""
    users = tuple(replace(u, beta=2.0) if u.user_id == "ue2" else u for u in cell.users)
    _, trials = _clearing_trials(monkeypatch, lambda: run_first_stage(users, capacity))
    assert len(trials) == 1 and trials[0] <= 7, trials



def _sigmoid(a, b):
    return {"kind": "sigmoidal", "a": a, "b": b}


def _log(k, r_max):
    return {"kind": "logarithmic", "k": k, "r_max": r_max}


# Four cells of the benchmark's fuzz draws (seed 3 cell 111, seed 8
# cells 104, 140 and 115) whose clearings took the most trials.
_TAIL_CELLS = [
    {"R": 166.63698279982282, "users": [
        {"id": "u0", "class": "vip", "beta": 2, "apps": [
            {"utility": _sigmoid(3, 23.47104370364122), "weight": 0.2639229072126518},
            {"utility": _sigmoid(10, 56.218793835039534), "weight": 0.12828796431379233,
             "target_rate": 26.391196530038975},
            {"utility": _sigmoid(10, 54.85525554394917), "weight": 0.6077891284735557}]},
        {"id": "u1", "class": "vip", "beta": 0.5, "apps": [
            {"utility": _log(0.5, 112.04933082217197), "weight": 0.2587485405758745},
            {"utility": _sigmoid(0.1, 55.72354093744895), "weight": 0.3528336477023179,
             "target_rate": 2.1633651916294983},
            {"utility": _log(1, 133.5572807655231), "weight": 0.3884178117218076}]},
        {"id": "u2", "class": "regular", "beta": 0.5, "apps": [
            {"utility": _sigmoid(10, 28.144555330124724), "weight": 0.1690779458735028},
            {"utility": _log(3, 85.2150589777725), "weight": 0.12097412406016148},
            {"utility": _log(0.1, 154.69271665136168), "weight": 0.7099479300663358}]},
        {"id": "u3", "class": "vip", "beta": 2, "apps": [
            {"utility": _sigmoid(3, 22.35186491913653), "weight": 0.16008597404914315},
            {"utility": _sigmoid(10, 8.336280718105282), "weight": 0.16662883872287204,
             "target_rate": 26.258451148873746},
            {"utility": _log(0.5, 172.52308889509996), "weight": 0.6732851872279848}]}]},
    {"R": 10.13113557887568, "users": [
        {"id": "u0", "class": "vip", "beta": 5, "apps": [
            {"utility": _log(10, 163.8013651426649), "weight": 0.24840530013705495,
             "target_rate": 14.39397937209433},
            {"utility": _sigmoid(10, 11.796214220080508), "weight": 0.50140412658966,
             "target_rate": 10.52701375072201},
            {"utility": _log(0.1, 87.30373603233694), "weight": 0.250190573273285,
             "target_rate": 4.750665397163163}]}]},
    {"R": 19.586904008044428, "users": [
        {"id": "u0", "class": "regular", "beta": 5, "apps": [
            {"utility": _sigmoid(10, 55.59548695242954), "weight": 1.0}]},
        {"id": "u1", "class": "regular", "beta": 0.5, "apps": [
            {"utility": _sigmoid(1, 34.39863742447939), "weight": 0.5529834283438327},
            {"utility": _log(10, 89.54538537845524), "weight": 0.44701657165616726}]},
        {"id": "u2", "class": "regular", "beta": 1, "apps": [
            {"utility": _sigmoid(10, 8.294963229054604), "weight": 1.0}]},
        {"id": "u3", "class": "vip", "beta": 2, "apps": [
            {"utility": _sigmoid(1, 55.276818586767064), "weight": 0.6157810881758186},
            {"utility": _log(1, 128.76037450905721), "weight": 0.3842189118241814,
             "target_rate": 15.091198143648885}]}]},
    {"R": 154.18544679263283, "users": [
        {"id": "u0", "class": "vip", "beta": 5, "apps": [
            {"utility": _sigmoid(1, 27.764972670703635), "weight": 0.03521602990708844,
             "target_rate": 21.606475641610988},
            {"utility": _sigmoid(0.5, 41.89588257934092), "weight": 0.9647839700929115,
             "target_rate": 17.741624854032192}]},
        {"id": "u1", "class": "regular", "beta": 2, "apps": [
            {"utility": _sigmoid(3, 22.181136438616548), "weight": 0.4015135216364558},
            {"utility": _log(3, 130.80750815263525), "weight": 0.3090486642525042},
            {"utility": _sigmoid(0.1, 59.67421832235836), "weight": 0.28943781411103986}]},
        {"id": "u2", "class": "vip", "beta": 1, "apps": [
            {"utility": _log(1, 95.85600550687248), "weight": 0.5251243410815559},
            {"utility": _sigmoid(10, 30.331004422150244), "weight": 0.19620540297216293,
             "target_rate": 14.361695787059599},
            {"utility": _sigmoid(10, 40.281235460225744), "weight": 0.27867025594628125,
             "target_rate": 29.433987072766453}]},
        {"id": "u3", "class": "vip", "beta": 5, "apps": [
            {"utility": _sigmoid(10, 42.48649319976313), "weight": 0.20570018418560962,
             "target_rate": 3.792049258496452},
            {"utility": _sigmoid(0.1, 48.9458030635101), "weight": 0.6667901111127691,
             "target_rate": 5.574440631799257},
            {"utility": _sigmoid(0.5, 15.61514137903885), "weight": 0.1275097047016213,
             "target_rate": 13.171681096177938}]}]},
]


@pytest.mark.parametrize("tree", _TAIL_CELLS, ids=["fuzz_3_111", "fuzz_8_104", "fuzz_8_140",
                                                  "fuzz_8_115"])
def test_fuzz_cells_clear_in_few_trials(tree, monkeypatch):
    """Secant steps in s took 20, 20 and 22 trials on the first three. On
    3/111 and 8/140 they stepped around the plateau nearest the last trial,
    far from the root, and crept across the bracket; on 8/104 they stalled
    6e-7 below the plateau price 25.07. A prototype of Newton steps in s
    took 41 on 8/115, in a capped user's re-clear. Each clearing of the
    four now takes at most 10."""
    config = scenario_from_dict(tree)
    _, trials = _clearing_trials(monkeypatch, lambda: run_once(config))
    assert trials and max(trials) <= 16, trials

def _assert_conserved(record):
    """User rates sum to R, and each user's app rates to its user rate, to 1e-9."""
    assert sum(record.user_rates.values()) == pytest.approx(record.capacity, rel=1e-9, abs=0)
    for uid, rate in record.user_rates.items():
        assert sum(record.app_rates[uid]) == pytest.approx(rate, rel=1e-9, abs=0), uid


@pytest.mark.parametrize("capacity", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("regular_only", [False, True], ids=["reference", "regular_only"])
def test_tiny_capacities_are_conserved(cell, capacity, regular_only):
    # The reference cell is scarce at these capacities; its two regular
    # users alone, without targets, are abundant at any capacity.
    users = cell.users[2:] if regular_only else cell.users
    _assert_conserved(run_once(replace(cell, users=users, capacity=capacity)))


@pytest.mark.parametrize("capacity", [5.0, 60.0, 200.0])
@pytest.mark.parametrize(
    "extreme",
    [
        # Veltkamp's split of a = 1e301 in the closed-form demand overflowed to nan.
        lambda ue1: replace(ue1, apps=(
            replace(ue1.apps[0], utility=SigmoidalUtility(a=1e301, b=20.0)), ue1.apps[1])),
        # Prices near 1e301 overflowed the clearing's bracket search to inf.
        lambda ue1: replace(ue1, beta=1e301),
    ],
    ids=["sigmoid_a_1e301", "beta_1e301"],
)
def test_extreme_valid_parameters_give_a_conserving_allocation(cell, capacity, extreme):
    users = (extreme(cell.users[0]),) + cell.users[1:]
    _assert_conserved(run_once(replace(cell, users=users, capacity=capacity)))


@pytest.mark.parametrize("capacity", [1e-12, 1e-300])
def test_the_oracle_certifies_tiny_capacities(cell, capacity):
    # Absolute stopping widths put every demand at 5e-13 or more, so no
    # price brought the total down to a budget of 1e-12.
    record = run_once(replace(cell, capacity=capacity))
    reference = centralized_solve(cell.users, capacity)
    for uid, rate in record.user_rates.items():
        assert rate == pytest.approx(reference.user_rates[uid], rel=1e-6, abs=0), uid


def _sigmoid_a_1e301(ue1):
    return replace(ue1, apps=(
        replace(ue1.apps[0], utility=SigmoidalUtility(a=1e301, b=20.0)), ue1.apps[1]))


def _beta_1e301(ue1):
    return replace(ue1, beta=1e301)


def _sigmoid_a_1e_neg300(ue1):
    return replace(ue1, apps=(
        replace(ue1.apps[0], utility=SigmoidalUtility(a=1e-300, b=20.0)), ue1.apps[1]))


def _log_k_1e_neg300(ue1):
    return replace(ue1, apps=(
        ue1.apps[0], replace(ue1.apps[1], utility=LogarithmicUtility(k=1e-300, r_max=100.0))))


@pytest.mark.parametrize(
    ("extreme", "capacity"),
    [(_sigmoid_a_1e301, 5.0), (_sigmoid_a_1e301, 40.0)]
    + [(_beta_1e301, capacity) for capacity in (5.0, 40.0, 60.0, 200.0)]
    + [(_sigmoid_a_1e_neg300, 200.0), (_sigmoid_a_1e_neg300, 1e6)],
)
def test_the_oracle_certifies_extreme_valid_parameters(cell, extreme, capacity):
    # Their prices lie past 2^500, where the oracle's price bracket
    # stopped growing, and beta = 1e301 sends uncapped demand past the
    # rate where its demand bracket stopped doubling. At a = 1e-300,
    # e^{-ar} rounds to 1 and ln U took log1p(-1): ValueError.
    users = (extreme(cell.users[0]),) + cell.users[1:]
    record = run_once(replace(cell, users=users, capacity=capacity))
    reference = centralized_solve(users, capacity)
    tol = max(0.1, 0.005 * capacity)
    for uid, rate in record.user_rates.items():
        assert abs(rate - reference.user_rates[uid]) <= tol, uid


def test_a_sigmoid_whose_a_times_b_overflows_solves_as_the_oracle(cell):
    # a = b = 1e200: the closed-form demand took ln t = a b + ... = inf,
    # and run_once raised "demand at price 0.4 exceeds float range".
    users = (replace(cell.users[0], apps=(
        replace(cell.users[0].apps[0], utility=SigmoidalUtility(a=1e200, b=1e200)),
        cell.users[0].apps[1])),) + cell.users[1:]
    record = run_once(replace(cell, users=users))
    reference = centralized_solve(users, cell.capacity)
    for uid, rate in record.user_rates.items():
        assert abs(rate - reference.user_rates[uid]) <= max(0.1, 0.005 * cell.capacity), uid


@pytest.mark.parametrize("extreme", [_sigmoid_a_1e_neg300, _log_k_1e_neg300])
def test_the_oracle_certifies_where_rate_products_underflow(cell, extreme):
    # At R = 1e-300 ue1's a r or k r rounds to 0, where (ln U)' was inf,
    # so every price overspent. Near rate 0 each app demands weight / p,
    # and both scarce VIPs' weights sum to 1: they split R evenly.
    users = (extreme(cell.users[0]),) + cell.users[1:]
    reference = centralized_solve(users, 1e-300)
    assert reference.user_rates["ue1"] == pytest.approx(0.5e-300, rel=1e-9, abs=0)
    assert reference.user_rates["ue2"] == pytest.approx(0.5e-300, rel=1e-9, abs=0)


@pytest.mark.parametrize("extreme", [_sigmoid_a_1e_neg300, _log_k_1e_neg300])
def test_demand_where_its_closed_form_underflows_splits_as_the_oracle(cell, extreme):
    # At R = 1e-300 prices reach about 1e300, where z = k w / p (log) or
    # M = w a (1 + e^{-ab}) / p (sigmoid) underflows. The closed form
    # then gave ue1's app demand 0, not about w / p, and run_once handed
    # ue1 1/3 of R and ue2 2/3, against 1/2 each.
    users = (extreme(cell.users[0]),) + cell.users[1:]
    record = run_once(replace(cell, users=users, capacity=1e-300))
    reference = centralized_solve(users, 1e-300)
    for uid, rate in record.user_rates.items():
        assert rate == pytest.approx(reference.user_rates[uid], rel=1e-9, abs=0), uid


def test_an_overflowing_log_slope_is_left_out_of_the_newton_response(cell):
    # k * r overflows ue1's log app past r = 1.06, whose slope
    # (ln (ln U)')' is then 0; the clearing divided by it and raised
    # ZeroDivisionError. (r_max = 1 keeps k * r_max, the normalisation's
    # argument, finite.)
    ue1 = cell.users[0]
    app = replace(ue1.apps[1], utility=LogarithmicUtility(k=1.7e308, r_max=1.0))
    users = (replace(ue1, apps=(ue1.apps[0], app)),) + cell.users[1:]
    _assert_conserved(run_once(replace(cell, users=users, capacity=1e6)))


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


def _solve_or_name(solve, config):
    try:
        return solve(config)
    except NuraError as exc:  # any other exception fails the test
        return type(exc).__name__


def test_wide_range_cells_agree_with_the_oracle_or_both_raise():
    """400 trees at s = 12: each validates or raises ValidationError; a
    valid one is solved alike by run_once and the oracle, within
    max(0.1, 0.5% of R), or both raise a typed NuraError."""
    rng = random.Random(1)
    outcomes = Counter()
    for draw in range(400):
        tree = wide_tree(rng, 12)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                config = scenario_from_dict(tree)
        except ValidationError:
            outcomes["invalid"] += 1
            continue
        record = _solve_or_name(run_once, config)
        reference = _solve_or_name(lambda c: centralized_solve(c.users, c.capacity), config)
        if isinstance(record, str) or isinstance(reference, str):
            assert isinstance(record, str) and isinstance(reference, str), (draw, record, reference)
            outcomes[f"{record}/{reference}"] += 1
            continue
        tol = max(0.1, 0.005 * config.capacity)
        for uid, rate in record.user_rates.items():
            assert abs(rate - reference.user_rates[uid]) <= tol, (draw, uid)
            for got, want in zip(record.app_rates[uid], reference.app_rates[uid]):
                assert abs(got - want) <= tol, (draw, uid)
        outcomes["agree"] += 1
    assert outcomes["agree"] >= 350, outcomes
