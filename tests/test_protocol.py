"""Bidding loop: pricing step, case split, convergence, determinism."""

import math
from dataclasses import replace

import pytest

from nura import (
    Application,
    CaseFlag,
    ContractError,
    DomainError,
    NonConvergenceError,
    ProtocolError,
    ProtocolParams,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    app_rate_at_price,
    bundled_schedule_path,
    damp_bid,
    determine_case,
    enodeb_step,
    load_schedule,
    run_first_stage,
    scenario,
    trace_records,
)
from nura.utility import regime_table


def _params(**kw):
    return ProtocolParams(**kw)


def test_enodeb_step_prices_aggregate_demand():
    params = _params()
    price = enodeb_step({"a": 10.0, "b": 30.0}, {"a": 0.0, "b": 0.0}, 100.0, params)
    assert price == 0.4


def test_enodeb_step_signals_stop():
    params = _params(delta=1e-3)
    bids = {"a": 10.0, "b": 30.0}
    prev = {"a": 10.0 + 5e-4, "b": 30.0 - 5e-4}
    assert enodeb_step(bids, prev, 100.0, params) is None
    # one user still moving keeps the loop alive
    prev["b"] = 29.0
    assert enodeb_step(bids, prev, 100.0, params) == 0.4


def test_enodeb_step_price_floor():
    params = _params()
    price = enodeb_step({"a": 1e-15}, {"a": 1.0}, 1e9, params)
    assert price == params.price_floor


def test_enodeb_step_requires_bids():
    with pytest.raises(ProtocolError):
        enodeb_step({}, {}, 100.0, _params())


def test_protocol_params_validation():
    with pytest.raises(DomainError):
        _params(delta=0.0)
    with pytest.raises(DomainError):
        _params(l1=-1.0)
    with pytest.raises(DomainError):
        _params(max_rounds=1)
    with pytest.raises(DomainError):
        _params(w_init=0.0)
    with pytest.raises(DomainError):
        _params(price_floor=0.0)


@pytest.mark.parametrize(
    "bad",
    [{"max_rounds": 100.0}, {"max_rounds": True}, {"l1": math.inf}, {"l2": math.inf}],
)
def test_protocol_params_reject_non_integer_rounds_and_infinite_damping(bad):
    # a float round limit used to fail later in range(), and l1 = inf
    # switched damping off
    with pytest.raises(DomainError):
        _params(**bad)


# ---------------------------------------------------------------------------
# case determination


def test_case_boundary_counts_as_scarce(cell):
    # total VIP target is 50; equality still excludes the regulars
    assert determine_case(cell.users, 50.0) is CaseFlag.TARGETS_EXCEED_CAPACITY
    assert determine_case(cell.users, 50.0001) is CaseFlag.TARGETS_BELOW_CAPACITY
    assert determine_case(cell.users, 5.0) is CaseFlag.TARGETS_EXCEED_CAPACITY

    apps = [app for user in cell.users for app in user.apps]
    targets = [app.target_rate for app in apps]

    scarce = regime_table(cell.users, 50.0)
    assert scarce.case is CaseFlag.TARGETS_EXCEED_CAPACITY
    assert [user.user_id for user in scarce.participants] == ["ue1", "ue2"]
    assert scarce.budget == 50.0
    assert scarce.user_caps == (20.0, 30.0)
    assert [row.cap for row in scarce.rows] == targets[: len(scarce.rows)]
    assert all(row.offset == 0.0 for row in scarce.rows)

    abundant = regime_table(cell.users, 50.0001)
    assert abundant.case is CaseFlag.TARGETS_BELOW_CAPACITY
    assert abundant.participants == cell.users
    assert abundant.budget == pytest.approx(1e-4, rel=1e-6)
    assert abundant.user_caps == (None,) * 4
    assert [row.offset for row in abundant.rows] == [t or 0.0 for t in targets]
    assert all(row.cap is None for row in abundant.rows)


# ---------------------------------------------------------------------------
# full runs on the reference cell


def test_scarce_capacity_excludes_regulars(sweep):
    for record in sweep:
        if record.capacity <= 50.0:
            assert record.case is CaseFlag.TARGETS_EXCEED_CAPACITY
            assert record.user_rates["ue3"] == 0.0
            assert record.user_rates["ue4"] == 0.0
        else:
            assert record.case is CaseFlag.TARGETS_BELOW_CAPACITY
            assert min(record.user_rates.values()) > 0.0


def test_stage_one_conserves_capacity(sweep):
    for record in sweep:
        assert sum(record.user_rates.values()) == pytest.approx(
            record.capacity, rel=1e-9
        )


def test_rounds_stay_modest(sweep):
    for record in sweep:
        assert record.rounds <= 120


def test_mirrored_vip_and_regular_converge_together(cell):
    """A VIP's target-shifted problem matches its mirror regular user.

    ue3 runs ue1's applications without targets; with capacity abundant
    the offset cancels out of the first-order conditions, so both end
    at the same rate.
    """
    result = run_first_stage(cell.users, 200.0, cell.protocol)
    assert result.rates["ue1"] == pytest.approx(result.rates["ue3"], abs=1e-6)
    assert result.rates["ue2"] == pytest.approx(result.rates["ue4"], abs=1e-6)


def test_first_stage_deterministic(cell):
    first = run_first_stage(cell.users, 85.0, cell.protocol)
    second = run_first_stage(cell.users, 85.0, cell.protocol)
    assert first.rates == second.rates
    assert first.final_price == second.final_price
    assert [s.bids for s in first.trace] == [s.bids for s in second.trace]


def test_w_init_override_controls_round_one(cell):
    params = ProtocolParams(w_init=7.0)
    result = run_first_stage(cell.users, 200.0, params)
    first_round = result.trace[0]
    assert first_round.round_index == 1
    assert set(first_round.bids.values()) == {7.0}


def test_damping_envelope_holds(sweep):
    for record in sweep:
        by_round = {state.round_index: state.bids for state in record.trace}
        for n in sorted(by_round):
            if n == 1:
                continue
            step = 5.0 * math.exp(-n / 10.0)
            for uid, bid in by_round[n].items():
                assert abs(bid - by_round[n - 1][uid]) <= step + 1e-12


def test_stop_round_marked(cell):
    result = run_first_stage(cell.users, 100.0, cell.protocol)
    assert result.trace[-1].converged
    assert all(not state.converged for state in result.trace[:-1])
    assert result.rounds_used == result.trace[-1].round_index


def test_nonconvergence_carries_trace(cell):
    with pytest.raises(NonConvergenceError) as excinfo:
        run_first_stage(cell.users, 55.0, ProtocolParams(max_rounds=10))
    assert excinfo.value.rounds == 10
    assert len(excinfo.value.trace) == 10


def test_duplicate_user_ids_rejected(cell):
    users = list(cell.users) + [cell.users[0]]
    with pytest.raises(ContractError):
        run_first_stage(users, 100.0, cell.protocol)


def test_no_participants_rejected():
    with pytest.raises(ProtocolError):
        run_first_stage([], 10.0, _params())


def test_capacity_validation(cell):
    for bad in [0.0, -5.0, math.inf, math.nan]:
        with pytest.raises(DomainError):
            run_first_stage(cell.users, bad, cell.protocol)


def test_trace_records_layout(cell):
    result = run_first_stage(cell.users, 40.0, cell.protocol)
    rows = trace_records(result)
    per_round = len(result.trace[0].bids)
    assert len(rows) == per_round * len(result.trace)
    round_index, user_id, bid, price = rows[0]
    assert round_index == 1
    assert user_id in result.rates
    assert bid > 0.0 and price > 0.0
    # rows grouped by round, ascending
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)


def test_single_vip_takes_whole_scarce_pool():
    app = Application(
        utility=SigmoidalUtility(a=1.0, b=6.0), weight=1.0, target_rate=12.0
    )
    vip = UserProfile("v", UserClass.VIP, beta=1.0, apps=(app,))
    result = run_first_stage([vip], 8.0, _params())
    assert result.case is CaseFlag.TARGETS_EXCEED_CAPACITY
    assert result.rates["v"] == pytest.approx(8.0, rel=1e-6)


def _paper_bid(user, case, price, prev_bid, round_index, params):
    """The paper's damped bid, restated from the per-application demand."""
    total = sum(
        app_rate_at_price(app, price / user.beta, case.app_cap(app), case) for app in user.apps
    )
    user_cap = case.user_cap(user)
    if user_cap is not None:
        total = min(total, user_cap)
    proposed = price * (total + case.user_offset(user))
    return damp_bid(proposed, prev_bid, round_index, params.l1, params.l2)


def test_every_round_bids_the_papers_damped_demand(cell):
    """Round n + 1's bid is damp(price_n * (demand at price_n + offset)),
    bit for bit, over the reference sweep and the schedule's epochs."""
    configs = [replace(cell, capacity=5.0 * i) for i in range(1, 41)] + [
        scenario._apply_weights(cell, epoch)
        for epoch in load_schedule(bundled_schedule_path()).epochs
    ]
    checked = 0
    for config in configs:
        result = run_first_stage(config.users, config.capacity, config.protocol)
        users = {user.user_id: user for user in config.users}
        for state, following in zip(result.trace, result.trace[1:]):
            assert following.bids.keys() == state.bids.keys()
            for uid, bid in following.bids.items():
                expected = _paper_bid(
                    users[uid], result.case, state.price, state.bids[uid],
                    state.round_index + 1, config.protocol,
                )
                assert bid == expected, (config.capacity, state.round_index, uid)
                checked += 1
    assert checked > 5_000
