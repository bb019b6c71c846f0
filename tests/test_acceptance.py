"""Acceptance suite: seven end-to-end criteria, one test (and one
verbose pass/fail line) per criterion.

Everything here runs the real pipeline on the bundled reference cell
and on small hand-built scenarios; the reference values come from the
independent centralized solvers and from closed forms.
"""

import math
import time

import pytest

from nura import (
    Application,
    CaseFlag,
    LogarithmicUtility,
    ProtocolParams,
    ScenarioConfig,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    bundled_schedule_path,
    grid_search_solve,
    load_schedule,
    run_once,
    run_schedule,
    sweep_R,
)
from dataclasses import replace


def _vip(uid, apps):
    return UserProfile(uid, UserClass.VIP, beta=1.0, apps=tuple(apps))


def _reg(uid, apps):
    return UserProfile(uid, UserClass.REGULAR, beta=1.0, apps=tuple(apps))


def _app(utility, weight, target=None):
    return Application(utility=utility, weight=weight, target_rate=target)


def test_criterion_1_scarce_capacity_excludes_regulars(cell):
    """R in 5..50: regulars get exactly zero, VIPs share all of R, fast."""
    started = time.perf_counter()
    records = sweep_R(cell, 5.0, 50.0, 5.0)
    elapsed = time.perf_counter() - started
    for record in records:
        assert record.user_rates["ue3"] == 0.0
        assert record.user_rates["ue4"] == 0.0
        vip_sum = record.user_rates["ue1"] + record.user_rates["ue2"]
        assert abs(vip_sum - record.capacity) <= 1e-2 * record.capacity
    assert elapsed < 5.0
    print(
        f"criterion 1: PASS - 10 scarce points, regulars at zero, "
        f"sub-sweep in {elapsed:.2f}s"
    )


def test_criterion_2_abundant_capacity_grants_target_floors(sweep):
    """R in 55..200: VIP targets are met (20 and 30) and rates sum to R."""
    checked = 0
    for record in sweep:
        if record.capacity <= 50.0:
            continue
        assert record.user_rates["ue1"] >= 20.0 - 0.05
        assert record.user_rates["ue2"] >= 30.0 - 0.05
        total = sum(record.user_rates.values())
        assert abs(total - record.capacity) <= 1e-2 * record.capacity
        checked += 1
    assert checked == 30
    print(f"criterion 2: PASS - target floors and conservation on {checked} points")


REDUCED_SCENARIOS = [
    # (label, users, capacity): at most 3 applications so the exhaustive
    # grid stays tractable; both capacity regimes are represented.
    (
        "solo VIP, scarce",
        [
            _vip(
                "v",
                [
                    _app(SigmoidalUtility(a=3.0, b=20.0), 0.5, 20.0),
                    _app(LogarithmicUtility(k=3.0, r_max=100.0), 0.5),
                ],
            )
        ],
        6.0,
    ),
    (
        "solo VIP, abundant",
        [
            _vip(
                "v",
                [
                    _app(SigmoidalUtility(a=3.0, b=20.0), 0.5, 20.0),
                    _app(LogarithmicUtility(k=3.0, r_max=100.0), 0.5),
                ],
            )
        ],
        30.0,
    ),
    (
        "VIP+regular, scarce",
        [
            _vip("v", [_app(LogarithmicUtility(k=1.0, r_max=50.0), 1.0, 5.0)]),
            _reg("r", [_app(SigmoidalUtility(a=2.0, b=4.0), 1.0)]),
        ],
        4.0,
    ),
    (
        "VIP+regular, abundant",
        [
            _vip("v", [_app(LogarithmicUtility(k=1.0, r_max=50.0), 1.0, 5.0)]),
            _reg("r", [_app(SigmoidalUtility(a=2.0, b=4.0), 1.0)]),
        ],
        12.0,
    ),
    (
        "three apps, abundant",
        [
            _vip("v", [_app(SigmoidalUtility(a=2.0, b=5.0), 1.0, 3.0)]),
            _reg(
                "r",
                [
                    _app(LogarithmicUtility(k=1.0, r_max=20.0), 0.5),
                    _app(SigmoidalUtility(a=1.0, b=6.0), 0.5),
                ],
            ),
        ],
        8.0,
    ),
    (
        "three apps, scarce",
        [
            _vip("v1", [_app(SigmoidalUtility(a=2.0, b=5.0), 1.0, 3.0)]),
            _vip(
                "v2",
                [
                    _app(LogarithmicUtility(k=1.0, r_max=20.0), 0.6, 2.0),
                    _app(SigmoidalUtility(a=1.0, b=6.0), 0.4, 4.0),
                ],
            ),
        ],
        7.0,
    ),
    (
        "VIP with two targeted apps, scarce",
        [
            _vip(
                "x",
                [
                    _app(LogarithmicUtility(k=3.0, r_max=100.0), 0.9, 1.0),
                    _app(SigmoidalUtility(a=1.0, b=30.0), 0.1, 20.0),
                ],
            ),
            _vip("y", [_app(SigmoidalUtility(a=1.0, b=15.0), 1.0, 30.0)]),
        ],
        20.0,
    ),
]


def test_two_targeted_apps_conserve_at_40():
    """The two-app VIP cell at R = 40: x's app rates must add up to x."""
    label, users, _ = REDUCED_SCENARIOS[-1]
    assert label == "VIP with two targeted apps, scarce"
    record = run_once(
        ScenarioConfig(users=tuple(users), capacity=40.0, protocol=ProtocolParams())
    )
    for uid, rate in record.user_rates.items():
        assert sum(record.app_rates[uid]) == pytest.approx(rate, abs=1e-6)


def test_criterion_3_pipeline_matches_reference_solvers(sweep, oracle_solutions):
    """Distributed results match the dual solver everywhere and the
    exhaustive grid on every reduced scenario."""
    worst_ratio = 0.0
    for record in sweep:
        reference = oracle_solutions[record.capacity]
        tolerance = max(0.1, 0.005 * record.capacity)
        for uid, rate in record.user_rates.items():
            deviation = abs(rate - reference.user_rates[uid])
            worst_ratio = max(worst_ratio, deviation / tolerance)
            assert deviation <= tolerance, (
                f"R={record.capacity}: {uid} off by {deviation:.4f} "
                f"(tolerance {tolerance:.4f})"
            )
            for got, want in zip(record.app_rates[uid], reference.app_rates[uid]):
                deviation = abs(got - want)
                worst_ratio = max(worst_ratio, deviation / tolerance)
                assert deviation <= tolerance, (
                    f"R={record.capacity}: {uid} app rate off by {deviation:.4f} "
                    f"(tolerance {tolerance:.4f})"
                )

    worst_grid = 0.0
    for label, users, capacity in REDUCED_SCENARIOS:
        config = ScenarioConfig(
            users=tuple(users), capacity=capacity, protocol=ProtocolParams()
        )
        record = run_once(config)
        grid = grid_search_solve(users, capacity, step=0.01)
        for uid in record.user_rates:
            dev = abs(record.user_rates[uid] - grid.user_rates[uid])
            worst_grid = max(worst_grid, dev)
            assert dev <= 0.05, f"{label}: {uid} user rate off by {dev:.4f}"
            for got, want in zip(record.app_rates[uid], grid.app_rates[uid]):
                dev = abs(got - want)
                worst_grid = max(worst_grid, dev)
                assert dev <= 0.05, f"{label}: {uid} app rate off by {dev:.4f}"
    print(
        f"criterion 3: PASS - dual solver within tolerance on 40 points "
        f"(worst fraction {worst_ratio:.2f}), grid within "
        f"{worst_grid:.4f} on {len(REDUCED_SCENARIOS)} reduced scenarios"
    )


def test_criterion_4_splits_conserve_and_respect_floors(sweep):
    """Per-app rates add up to the user rate; targets are floors when
    capacity is abundant."""
    for record in sweep:
        for uid, rate in record.user_rates.items():
            split_sum = sum(record.app_rates[uid])
            assert abs(split_sum - rate) <= 1e-6 * max(abs(rate), 1e-12)
        if record.case is CaseFlag.TARGETS_BELOW_CAPACITY:
            assert record.app_rates["ue1"][0] >= 20.0 - 1e-9
            assert record.app_rates["ue2"][0] >= 30.0 - 1e-9
    print("criterion 4: PASS - splits conserve user rates on all 40 points")


def test_criterion_5_protocol_convergence_and_damping(cell, sweep):
    """Stop fires within 2000 rounds and bids obey the shrinking step."""
    assert cell.protocol.delta == 1e-3
    assert cell.protocol.l1 == 5.0 and cell.protocol.l2 == 10.0
    max_rounds = 0
    for record in sweep:
        assert record.rounds <= 2000
        max_rounds = max(max_rounds, record.rounds)
        by_round = {state.round_index: state.bids for state in record.trace}
        for n in sorted(by_round):
            if n == 1:
                continue
            bound = 5.0 * math.exp(-n / 10.0) + 1e-12
            for uid, bid in by_round[n].items():
                assert abs(bid - by_round[n - 1][uid]) <= bound
    print(f"criterion 5: PASS - all runs stop by round {max_rounds} <= 2000")


def test_criterion_6_weight_schedule_behavior(cell):
    """Three-epoch schedule at R=200: completes, zero-weight apps get
    zero, each epoch equals the one-shot run with those weights."""
    schedule = load_schedule(bundled_schedule_path())
    results = run_schedule(cell, schedule)
    assert len(results) == 3

    worst = 0.0
    for epoch, record in results:
        users = []
        for user in cell.users:
            apps = tuple(
                replace(app, weight=weight)
                for app, weight in zip(user.apps, epoch.weights[user.user_id])
            )
            users.append(replace(user, apps=apps))
        solo = run_once(replace(cell, users=tuple(users)))
        for uid in record.user_rates:
            worst = max(worst, abs(record.user_rates[uid] - solo.user_rates[uid]))
            assert record.user_rates[uid] == pytest.approx(
                solo.user_rates[uid], abs=1e-6
            )
        for uid, weights in epoch.weights.items():
            for j, weight in enumerate(weights):
                if weight == 0.0:
                    assert record.app_rates[uid][j] == 0.0
    print(f"criterion 6: PASS - 3 epochs, one-shot agreement within {worst:.2e}")


def test_criterion_7_utility_property_suite(cell):
    """Normalization, log-concavity, and derivative accuracy for every
    utility in the bundled scenario."""
    instances = [app.utility for user in cell.users for app in user.apps]
    assert len(instances) == 8
    for utility in instances:
        assert abs(utility.evaluate(0.0)) <= 1e-12
        if isinstance(utility, LogarithmicUtility):
            assert abs(utility.evaluate(utility.r_max) - 1.0) <= 1e-12

        # log-concavity: the log-derivative never increases
        scale = utility.b if isinstance(utility, SigmoidalUtility) else utility.r_max
        lo, hi = 1e-3, 4.0 * scale
        ratio = (hi / lo) ** (1.0 / 199.0)
        slopes = [utility.dlog_evaluate(lo * ratio**i) for i in range(200)]
        for left, right in zip(slopes, slopes[1:]):
            assert right <= left * (1.0 + 1e-12)

        # derivative vs central finite differences, away from the
        # sigmoid's flat stretch where ln U is constant at double
        # precision and difference quotients are cancellation noise
        if isinstance(utility, SigmoidalUtility):
            b = utility.b
            points = [0.2, 0.5, 1.0, b - 3.0, b - 1.0, b, b + 1.0, b + 3.0, b + 6.0]
        else:
            points = [0.05 * 1.9**i for i in range(12)]
        for rate in points:
            if rate <= 0.0:
                continue
            h = 1e-6 * max(rate, 1.0)
            numeric = (
                utility.log_evaluate(rate + h) - utility.log_evaluate(rate - h)
            ) / (2.0 * h)
            assert utility.dlog_evaluate(rate) == pytest.approx(numeric, rel=1e-5)
    print("criterion 7: PASS - 8 utility instances pass the property suite")
