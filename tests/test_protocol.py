"""Bidding loop: pricing step, case split, convergence, determinism."""

import math
from collections import Counter
from dataclasses import replace

import pytest

from nura import (
    Application,
    CaseFlag,
    ContractError,
    DomainError,
    NonConvergenceError,
    ProtocolParams,
    RoundState,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    app_rate_at_price,
    bundled_schedule_path,
    damp_bid,
    determine_case,
    load_schedule,
    oracle,
    price_response,
    run_first_stage,
    scenario,
    trace_records,
)
from nura.utility import AppRow, add_up, regime_table


def _params(**kw):
    return ProtocolParams(**kw)


def test_round_one_prices_the_initial_bids(cell):
    # four participants at the default start min(R / 4, 0.4 * l1 * l2) = 20
    result = run_first_stage(cell.users, 200.0, _params())
    assert result.trace[0].price == 4 * 20.0 / 200.0
    result = run_first_stage(cell.users, 200.0, _params(w_init=7.0))
    assert result.trace[0].price == 4 * 7.0 / 200.0


def test_round_price_floor(cell):
    # 4e-6 / 200 lies below the floor; every bid moved by 1e-6 < delta
    # from 0, so round 1 is also the stop round
    params = _params(w_init=1e-6, price_floor=1.0)
    result = run_first_stage(cell.users, 200.0, params)
    assert result.trace[0].price == params.price_floor
    assert result.rounds_used == 1 and result.trace[0].converged


def _assert_stops_at_first_quiet_round(trace, delta):
    prev = dict.fromkeys(trace[0].bids, 0.0)
    for state in trace:
        quiet = all(abs(bid - prev[uid]) < delta for uid, bid in state.bids.items())
        assert state.converged == quiet, state.round_index
        prev = state.bids
    assert trace[-1].converged


def test_the_stop_fires_at_the_first_round_whose_bids_all_moved_less_than_delta(cell, sweep):
    for record in sweep:
        _assert_stops_at_first_quiet_round(record.trace, cell.protocol.delta)
    loose = run_first_stage(cell.users, 100.0, _params(delta=0.5))
    _assert_stops_at_first_quiet_round(loose.trace, 0.5)
    assert loose.rounds_used < run_first_stage(cell.users, 100.0, _params()).rounds_used


def test_each_round_is_one_round_bids_call_returning_its_total_and_stop_test(cell, sweep):
    """Over every round of the reference sweep, round_bids on a round's
    price and bids gives the next round's bids, their add_up total to the
    bit, and the two-pass stop test the loop ran before it was folded in."""
    params = cell.protocol
    checked = 0
    for record in sweep:
        layout = price_response.bidders(regime_table(cell.users, record.capacity))
        for state, following in zip(record.trace, record.trace[1:]):
            step = params.l1 * math.exp(-following.round_index / params.l2)
            bids, total, moved = price_response.round_bids(
                layout, state.price, step, state.bids, params.delta
            )
            assert bids == following.bids
            assert total.hex() == add_up(following.bids.values()).hex()
            assert following.price == max(total / record.capacity, params.price_floor)
            two_pass = False
            for bid, last in zip(bids.values(), state.bids.values()):
                if not abs(bid - last) < params.delta:
                    two_pass = True
                    break
            assert moved == two_pass == (not following.converged)
            checked += 1
    assert checked == sum(record.rounds - 1 for record in sweep) > 2000


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
    assert [row.cap for row in scarce.rows] == [t or math.inf for t in targets][: len(scarce.rows)]
    assert all(row.offset == 0.0 for row in scarce.rows)

    abundant = regime_table(cell.users, 50.0001)
    assert abundant.case is CaseFlag.TARGETS_BELOW_CAPACITY
    assert abundant.participants == cell.users
    assert abundant.budget == pytest.approx(1e-4, rel=1e-6)
    assert abundant.user_caps == (math.inf,) * 4
    assert [row.offset for row in abundant.rows] == [t or 0.0 for t in targets]
    assert all(row.cap == math.inf for row in abundant.rows)


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


def test_records_made_per_round_trial_row_and_member_are_their_named_tuples(cell):
    # They are built by tuple.__new__, which checks neither the class's
    # fields nor their number: each must be its NamedTuple, field for field.
    def made(record, cls):
        return type(record) is cls and record == cls(*record)

    for capacity in (5.0 * step for step in range(1, 41)):
        assert all(made(state, RoundState)
                   for state in run_first_stage(cell.users, capacity, cell.protocol).trace)
        table = regime_table(cell.users, capacity)
        assert all(made(row, AppRow) for row in table.rows)
        layout = price_response.bidders(table)
        assert made(layout, price_response.BidLayout)
        assert all(made(member, price_response.Bidder) for member in layout.members)
    with pytest.raises(NonConvergenceError) as excinfo:
        run_first_stage(cell.users, 55.0, ProtocolParams(max_rounds=10))
    assert all(made(state, RoundState) for state in excinfo.value.trace)
    _, _, upper, lower, _ = oracle._clear(lambda price: ([2.0 / price], []), 1.0)
    assert made(upper, oracle._Trial) and made(lower, oracle._Trial)


def test_each_round_after_the_first_damps_each_bid_once(cell, monkeypatch):
    """Tracers rebind price_response.damp_bid and divide by its call count:
    every round after the first damps each participant's bid once, by
    that round's one step."""
    steps = []
    damp = price_response.damp_bid

    def counted(proposed, prev, step):
        steps.append(step)
        return damp(proposed, prev, step)

    monkeypatch.setattr(price_response, "damp_bid", counted)
    for capacity in (40.0, 200.0):  # scarce: two participants; abundant: four
        steps.clear()
        result = run_first_stage(cell.users, capacity, cell.protocol)
        participants = len(result.trace[0].bids)
        assert len(steps) == participants * (result.rounds_used - 1)
        per_step = Counter(steps)
        assert len(per_step) == result.rounds_used - 1
        assert set(per_step.values()) == {participants}


def test_every_round_keeps_its_own_bid_dict(cell):
    result = run_first_stage(cell.users, 55.0, cell.protocol)
    assert len({id(state.bids) for state in result.trace}) == len(result.trace)


def test_duplicate_user_ids_rejected(cell):
    users = list(cell.users) + [cell.users[0]]
    with pytest.raises(ContractError):
        run_first_stage(users, 100.0, cell.protocol)


def test_no_participants_rejected():
    with pytest.raises(ContractError, match="at least one user is required"):
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


def test_trace_records_of_a_record_kept_without_its_trace_raise(cell):
    record = scenario.run_once(replace(cell, capacity=60.0))  # no keep_trace
    with pytest.raises(ContractError, match="keep_trace"):
        trace_records(record)


def test_single_vip_takes_whole_scarce_pool():
    app = Application(
        utility=SigmoidalUtility(a=1.0, b=6.0), weight=1.0, target_rate=12.0
    )
    vip = UserProfile("v", UserClass.VIP, beta=1.0, apps=(app,))
    result = run_first_stage([vip], 8.0, _params())
    assert result.case is CaseFlag.TARGETS_EXCEED_CAPACITY
    assert result.rates["v"] == pytest.approx(8.0, rel=1e-6)


def _paper_bid(user, case, price, prev_bid, round_index, params):
    """The paper's damped bid, restated from the per-application demand:
    under scarce capacity each target caps its application's rate and,
    added up, the user's; under abundant capacity the targets are granted
    as offsets and nothing is capped."""
    scarce = case is CaseFlag.TARGETS_EXCEED_CAPACITY
    total = sum(
        app_rate_at_price(app, price / user.beta, (app.target_rate or math.inf) if scarce
                          else math.inf, 0.0 if scarce else app.offset) for app in user.apps
    )
    total = min(total, user.total_target if scarce else math.inf)
    proposed = price * (total + (0.0 if scarce else user.total_target))
    return damp_bid(proposed, prev_bid, params.l1 * math.exp(-round_index / params.l2))


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
