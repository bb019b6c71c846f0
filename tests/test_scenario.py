"""Scenario IO, validation, sweeps, schedules, and CSV emission."""

import csv
import math
import warnings
from dataclasses import replace

import pytest
import yaml

from nura import (
    CaseFlag,
    ContractError,
    ProtocolParams,
    SigmoidalUtility,
    SweepError,
    UserClass,
    ValidationError,
    bundled_schedule_path,
    emit_csv,
    load_schedule,
    load_scenario,
    run_once,
    run_schedule,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep_R,
)
from nura import scenario


def _minimal_dict(**overrides):
    raw = {
        "R": 10.0,
        "users": [
            {
                "id": "u1",
                "class": "regular",
                "beta": 1.0,
                "apps": [
                    {
                        "utility": {"kind": "logarithmic", "k": 1.0, "r_max": 20.0},
                        "weight": 1.0,
                    }
                ],
            }
        ],
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# bundled reference cell


def test_bundled_cell_parameters(cell):
    assert cell.capacity == 200.0
    assert cell.protocol.delta == 1e-3
    assert cell.protocol.l1 == 5.0
    assert cell.protocol.l2 == 10.0
    ids = [user.user_id for user in cell.users]
    assert ids == ["ue1", "ue2", "ue3", "ue4"]
    classes = [user.user_class for user in cell.users]
    assert classes == [UserClass.VIP, UserClass.VIP, UserClass.REGULAR, UserClass.REGULAR]
    assert all(user.beta == 1.0 for user in cell.users)

    ue1, ue2, ue3, ue4 = cell.users
    sig1 = ue1.apps[0]
    assert isinstance(sig1.utility, SigmoidalUtility)
    assert (sig1.utility.a, sig1.utility.b) == (3.0, 20.0)
    assert sig1.target_rate == 20.0 and sig1.weight == 0.5
    assert ue1.apps[1].utility.k == 3.0 and ue1.apps[1].utility.r_max == 100.0
    assert ue2.apps[0].utility.a == 1.0 and ue2.apps[0].utility.b == 30.0
    assert ue2.apps[0].target_rate == 30.0
    assert (ue2.apps[0].weight, ue2.apps[1].weight) == (0.9, 0.1)
    assert ue2.apps[1].utility.k == 0.5

    # the regular users mirror the VIPs' applications without targets
    for vip, regular in [(ue1, ue3), (ue2, ue4)]:
        assert regular.total_target == 0.0
        for vip_app, reg_app in zip(vip.apps, regular.apps):
            assert type(vip_app.utility) is type(reg_app.utility)
            assert vip_app.weight == reg_app.weight
            assert reg_app.target_rate is None

    assert cell.users[0].total_target == 20.0
    assert cell.users[1].total_target == 30.0


# ---------------------------------------------------------------------------
# validation


def test_minimal_dict_accepted():
    config = scenario_from_dict(_minimal_dict())
    assert config.capacity == 10.0
    assert config.users[0].user_id == "u1"
    assert config.protocol == ProtocolParams()


def test_validation_collects_all_violations():
    raw = _minimal_dict()
    raw["R"] = -3.0
    raw["bogus"] = 1
    raw["users"].append(
        {
            "id": "u 2",  # space: bad id
            "class": "gold",  # unknown class
            "beta": 0.0,
            "apps": [],
        }
    )
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    message = str(excinfo.value)
    assert len(excinfo.value.violations) >= 5
    for fragment in ["R", "bogus", "u 2", "gold", "beta"]:
        assert fragment in message


def test_validation_rejects_regular_with_target():
    raw = _minimal_dict()
    raw["users"][0]["apps"][0]["target_rate"] = 5.0
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert "target" in str(excinfo.value)


def test_validation_rejects_weights_not_summing_to_one():
    raw = _minimal_dict()
    raw["users"][0]["apps"][0]["weight"] = 0.7
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert "sum" in str(excinfo.value)


def test_a_weight_sum_is_reported_as_added_left_to_right():
    # CPython 3.12+ compensates sum(), which reads 1.1 here.
    raw = _minimal_dict()
    app = raw["users"][0]["apps"][0]
    raw["users"][0]["apps"] = [{**app, "weight": w} for w in [0.7, 0.1, 0.1, 0.1, 0.1]]
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert "users[0].apps: weights must sum to 1, got 1.0999999999999999" in str(excinfo.value)


def test_validation_rejects_duplicate_ids():
    raw = _minimal_dict()
    raw["users"].append(dict(raw["users"][0]))
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert "duplicate" in str(excinfo.value).lower()


def test_validation_reports_every_bad_protocol_value():
    raw = _minimal_dict(
        protocol={"delta": 0.0, "l1": "x", "max_rounds": 1, "price_floor": -1.0, "w_init": True}
    )
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    named = sorted(v.split(": ")[0] for v in excinfo.value.violations)
    keys = ["delta", "l1", "max_rounds", "price_floor", "w_init"]
    assert named == [f"<dict>.protocol.{key}" for key in keys]


def test_integers_beyond_the_float_range_are_violations():
    # A YAML literal like 1 followed by 400 zeros loads as an int that
    # float() cannot convert; it raised OverflowError.
    raw = _minimal_dict(R=10**400, protocol={"delta": 10**400})
    raw["users"][0]["beta"] = 10**400
    raw["users"][0]["apps"][0]["weight"] = -(10**400)
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert excinfo.value.violations == [
        "<dict>.R: must be finite, got inf",
        "<dict>.protocol.delta: delta must be positive, got inf",
        "<dict>.users[0].beta: must be finite, got inf",
        "<dict>.users[0].apps[0].weight: must be finite, got -inf",
    ]


@pytest.mark.parametrize(
    ("k", "r_max", "norm"),
    [(1.7e308, 100.0, "inf"), (1e-300, 1e-300, "0.0")],  # k * r_max overflows, underflows
)
def test_a_log_curve_without_a_finite_normalisation_is_a_violation(cell, k, r_max, norm):
    # ln ln(1 + k r_max) was inf (accepted, with ln U = -inf at every
    # rate) or ln 0 (a bare ValueError).
    raw = scenario_to_dict(cell)
    raw["users"][0]["apps"][1]["utility"].update(k=k, r_max=r_max)
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert excinfo.value.violations == [
        f"<dict>.users[0].apps[1].utility: ln(1 + k * r_max) must be positive and finite, "
        f"got {norm} (k={k!r}, r_max={r_max!r})"
    ]


def test_a_sigmoid_whose_scale_overflows_is_a_violation(cell):
    # a (1 + e^{-ab}) = inf passed validation; (ln U)'(1) was nan, and
    # run_once raised "demand ... exceeds float range".
    raw = scenario_to_dict(cell)
    raw["users"][0]["apps"][0]["utility"].update(a=1e308, b=1e-310)
    with pytest.raises(ValidationError) as excinfo:
        scenario_from_dict(raw)
    assert excinfo.value.violations == [
        "<dict>.users[0].apps[0].utility: a * (1 + e^(-a * b)) must be finite, "
        "got inf (a=1e+308, b=1e-310)"
    ]


def test_validation_rejects_unknown_utility_kind():
    raw = _minimal_dict()
    raw["users"][0]["apps"][0]["utility"] = {"kind": "linear", "slope": 1.0}
    with pytest.raises(ValidationError):
        scenario_from_dict(raw)


def test_yaml_syntax_error_reports_line(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("R: 10\nusers: [\n")
    with pytest.raises(ValidationError) as excinfo:
        load_scenario(bad)
    assert "line" in str(excinfo.value)


_PARITY_SNIPPETS = [
    "n: " + "7" * 400,
    "x: 1e3",  # a string in YAML 1.1
    "x: [.inf, -.inf, .INF]",
    "x: ~\ny: null",
    "x: [yes, no, Yes, NO, on, off]",
    "x: ['1', \"2.5\", '1e3']",
    "a: &cell {R: 10, users: [u1]}\nb: *cell",
    "k: 1\nk: 2",
]


def _assert_the_reader_builds_the_safe_loaders_tree(path):
    if scenario._YAML_LOADER is yaml.SafeLoader:
        pytest.skip("PyYAML was built without libyaml: the reader is the SafeLoader")
    expected = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
    assert scenario._read_yaml(path) == expected


@pytest.mark.parametrize("text", _PARITY_SNIPPETS)
def test_the_reader_parses_snippets_as_the_pure_python_safe_loader(text, tmp_path):
    path = tmp_path / "snippet.yaml"
    path.write_text(text + "\n")
    _assert_the_reader_builds_the_safe_loaders_tree(path)


@pytest.mark.parametrize("bundled", [scenario.bundled_scenario_path, bundled_schedule_path])
def test_the_reader_parses_the_bundled_files_as_the_pure_python_safe_loader(bundled):
    _assert_the_reader_builds_the_safe_loaders_tree(bundled())


def test_a_file_that_is_not_utf8_is_a_validation_error_naming_the_byte(tmp_path):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"R: 10\nusers: [\xff]\n")
    with pytest.raises(ValidationError, match="not UTF-8 text at byte 14"):
        load_scenario(bad)


def test_yaml_syntax_error_names_its_line_under_each_loader(yaml_loader, tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(scenario, "_YAML_LOADER", getattr(yaml, yaml_loader))
    bad = tmp_path / "broken.yaml"
    bad.write_text("R: 10\nusers: [1, 2\nx: ]\n")
    with pytest.raises(ValidationError, match=r"cannot parse YAML \(line 3\)"):
        load_scenario(bad)


def test_nesting_past_the_bound_is_a_validation_error_under_each_loader(yaml_loader,
                                                                        tmp_path,
                                                                        monkeypatch):
    monkeypatch.setattr(scenario, "_YAML_LOADER", getattr(yaml, yaml_loader))
    limit = scenario._MAX_YAML_DEPTH
    path = tmp_path / "deep.yaml"
    # The top-level mapping is the first level.
    path.write_text("R: 1\nx: " + "[" * (limit - 1) + "]" * (limit - 1) + "\n")
    tree = scenario._read_yaml(path)["x"]
    for _ in range(limit - 2):
        (tree,) = tree
    assert tree == []
    path.write_text("R: 1\nx:\n  " + "[" * limit + "]" * limit + "\n")
    with pytest.raises(ValidationError, match=f"nested deeper than {limit} levels \\(line 3\\)"):
        scenario._read_yaml(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_scenario(tmp_path / "nope.yaml")


def test_oversized_capacity_warns():
    raw = _minimal_dict()
    raw["R"] = 1000.0  # saturation scale is r_max = 20
    with pytest.warns(RuntimeWarning):
        scenario_from_dict(raw)


def test_the_saturation_scale_is_added_left_to_right():
    # r_max 20.1 + 20.3 + 20.1 is 60.50000000000001 left to right and 60.5
    # compensated (CPython 3.12+ sum): R equal to the former does not warn.
    raw = _minimal_dict()
    raw["users"] = [
        {"id": f"u{i}", "class": "regular", "beta": 1.0, "apps": [
            {"utility": {"kind": "logarithmic", "k": 1.0, "r_max": r_max}, "weight": 1.0}]}
        for i, r_max in enumerate([20.1, 20.3, 20.1])
    ]
    raw["R"] = 60.50000000000001
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scenario_from_dict(raw)
    raw["R"] = math.nextafter(raw["R"], math.inf)
    with pytest.warns(RuntimeWarning, match="saturation scale 60.5;"):
        scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# round trips


def test_dict_round_trip(cell):
    rebuilt = scenario_from_dict(scenario_to_dict(cell))
    assert rebuilt == cell


def test_file_round_trip(cell, tmp_path):
    path = tmp_path / "cell.yaml"
    save_scenario(cell, path)
    assert load_scenario(path) == cell


# ---------------------------------------------------------------------------
# runners


def test_run_once_record_fields(cell):
    record = run_once(replace(cell, capacity=80.0))
    assert record.capacity == 80.0
    assert record.case is CaseFlag.TARGETS_BELOW_CAPACITY
    assert set(record.user_rates) == {"ue1", "ue2", "ue3", "ue4"}
    assert record.trace is None
    assert record.rounds >= 2
    assert record.final_price > 0.0
    traced = run_once(replace(cell, capacity=80.0), keep_trace=True)
    assert traced.trace is not None and len(traced.trace) == traced.rounds


def test_sweep_covers_grid_and_flips_case(sweep):
    assert len(sweep) == 40
    flags = [record.case for record in sweep]
    flip = flags.index(CaseFlag.TARGETS_BELOW_CAPACITY)
    assert sweep[flip].capacity == 55.0
    assert all(f is CaseFlag.TARGETS_EXCEED_CAPACITY for f in flags[:flip])
    assert all(f is CaseFlag.TARGETS_BELOW_CAPACITY for f in flags[flip:])


def test_sweep_validates_bounds(cell):
    with pytest.raises(ContractError):
        sweep_R(cell, 50.0, 5.0, 5.0)
    with pytest.raises(ContractError):
        sweep_R(cell, 5.0, 50.0, 0.0)
    # Non-finite bounds would overflow the point count or make a capacity nan.
    for bounds in [(5.0, math.inf, 5.0), (5.0, 50.0, math.nan), (5.0, 50.0, math.inf),
                   (math.inf, math.inf, 5.0)]:
        with pytest.raises(ContractError, match="finite"):
            sweep_R(cell, *bounds)


class _PointRan(Exception):
    pass


def _no_point_may_run(config, keep_trace=False):
    raise _PointRan(config.capacity)


def test_sweep_refuses_more_points_than_its_limit_before_any_runs(cell, monkeypatch):
    monkeypatch.setattr(scenario, "run_once", _no_point_may_run)
    limit = scenario._MAX_SWEEP_POINTS
    with pytest.raises(_PointRan):  # exactly the limit: the first point starts
        sweep_R(cell, 1.0, float(limit), 1.0)
    with pytest.raises(ContractError, match=f"at most {limit} points"):
        sweep_R(cell, 1.0, limit + 1.0, 1.0)


def test_sweep_whose_point_count_overflows_is_refused(cell, monkeypatch):
    # (r_end - r_start) / r_step is inf here; int() of it raised OverflowError.
    monkeypatch.setattr(scenario, "run_once", _no_point_may_run)
    with pytest.raises(ContractError, match="inf steps"):
        sweep_R(cell, 1.0, 1e308, 1e-300)


@pytest.mark.parametrize("bounds, capacities", [
    ((0.1, 0.3, 0.1), [0.1, 0.2, 0.3]),  # the last point was 0.30000000000000004
    ((0.7, 2.1, 0.7), [0.7, 1.4, 2.1]),  # and 2.0999999999999996
    ((5.0, 12.0, 5.0), [5.0, 10.0]),  # 5 does not divide 7: the sweep stops short of 12
])
def test_a_sweep_ends_at_r_end_where_its_step_divides_the_range(cell, monkeypatch, bounds,
                                                                capacities):
    monkeypatch.setattr(scenario, "run_once", lambda config, keep_trace=False: config.capacity)
    assert sweep_R(cell, *bounds) == capacities


def test_sweep_collects_failures(cell):
    crippled = replace(cell, protocol=ProtocolParams(max_rounds=5))
    with pytest.raises(SweepError) as excinfo:
        sweep_R(crippled, 5.0, 15.0, 5.0)
    error = excinfo.value
    assert len(error.failures) == 3
    assert error.completed == []
    assert "R=5" in str(error)


def test_sweep_propagates_programming_errors(cell, monkeypatch):
    def broken(config, keep_trace=False):
        raise TypeError("not a library failure")

    monkeypatch.setattr(scenario, "run_once", broken)
    with pytest.raises(TypeError, match="not a library failure"):
        sweep_R(cell, 5.0, 15.0, 5.0)


# ---------------------------------------------------------------------------
# schedules


def test_bundled_schedule_epochs():
    schedule = load_schedule(bundled_schedule_path())
    assert len(schedule.epochs) == 3
    spans = [(e.start, e.end) for e in schedule.epochs]
    assert spans == [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0)]
    assert schedule.epochs[2].weights["ue1"] == (1.0, 0.0)


def test_schedule_runs_match_one_shot(cell):
    schedule = load_schedule(bundled_schedule_path())
    results = run_schedule(cell, schedule)
    assert len(results) == 3
    for epoch, record in results:
        users = []
        for user in cell.users:
            apps = tuple(
                replace(app, weight=w)
                for app, w in zip(user.apps, epoch.weights[user.user_id])
            )
            users.append(replace(user, apps=apps))
        solo = run_once(replace(cell, users=tuple(users)))
        for uid in record.user_rates:
            assert record.user_rates[uid] == pytest.approx(
                solo.user_rates[uid], abs=1e-9
            )


def test_schedule_zero_weight_app_gets_nothing(cell):
    schedule = load_schedule(bundled_schedule_path())
    results = run_schedule(cell, schedule)
    third = results[2][1]
    assert third.app_rates["ue1"][1] == 0.0  # weight 0.0 in the last epoch


def test_schedule_rejects_gap(tmp_path):
    path = tmp_path / "sched.yaml"
    path.write_text(
        "epochs:\n"
        "  - {start: 0, end: 10, weights: {u1: [1.0]}}\n"
        "  - {start: 12, end: 20, weights: {u1: [1.0]}}\n"
    )
    with pytest.raises(ValidationError) as excinfo:
        load_schedule(path)
    assert "contiguous" in str(excinfo.value)


def test_schedule_rejects_bad_row_sum(tmp_path):
    path = tmp_path / "sched.yaml"
    path.write_text("epochs:\n  - {start: 0, end: 10, weights: {u1: [0.4, 0.4]}}\n")
    with pytest.raises(ValidationError) as excinfo:
        load_schedule(path)
    assert "sum" in str(excinfo.value)


def test_schedule_user_mismatch_detected(cell):
    schedule = load_schedule(bundled_schedule_path())
    stranger = replace(
        schedule.epochs[0],
        weights={"ghost": (0.5, 0.5), **schedule.epochs[0].weights},
    )
    bad = replace(schedule, epochs=(stranger,) + schedule.epochs[1:])
    with pytest.raises(ValidationError) as excinfo:
        run_schedule(cell, bad)
    assert "ghost" in str(excinfo.value)


def test_a_schedule_row_with_the_wrong_number_of_weights_names_its_user(cell):
    schedule = load_schedule(bundled_schedule_path())
    short = replace(schedule.epochs[0], weights={**schedule.epochs[0].weights, "ue3": (1.0,)})
    with pytest.raises(ValidationError) as excinfo:
        run_schedule(cell, replace(schedule, epochs=(short,)))
    assert excinfo.value.violations == [
        "epoch [0.0, 10.0]: user 'ue3' has 2 applications but 1 weights"]


def test_a_schedule_epoch_without_a_users_weights_names_its_user(cell):
    schedule = load_schedule(bundled_schedule_path())
    weights = {uid: row for uid, row in schedule.epochs[0].weights.items() if uid != "ue4"}
    partial = replace(schedule.epochs[0], weights=weights)
    with pytest.raises(ValidationError) as excinfo:
        run_schedule(cell, replace(schedule, epochs=(partial,)))
    assert excinfo.value.violations == ["epoch [0.0, 10.0]: no weights for user 'ue4'"]


def test_schedule_rejects_an_epoch_without_weights(tmp_path):
    path = tmp_path / "sched.yaml"
    path.write_text("epochs:\n  - {start: 0, end: 10, weights: {}}\n")
    with pytest.raises(ValidationError) as excinfo:
        load_schedule(path)
    assert any(violation.endswith(".epochs[0].weights: expected a nonempty mapping")
               for violation in excinfo.value.violations)


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_allocations_csv(tmp_path, sweep):
    path = tmp_path / "allocations.csv"
    emit_csv(sweep, path, kind="allocations")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["R", "case", "user_id", "rate", "rounds", "final_price"]
    assert len(rows) == 1 + 40 * 4
    by_first = [float(row[0]) for row in rows[1:]]
    assert by_first == sorted(by_first)
    # numbers survive the 9-significant-digit format round trip
    assert float(rows[1][3]) == pytest.approx(sweep[0].user_rates["ue1"], rel=1e-8)


def test_emit_app_allocations_csv(tmp_path, sweep):
    path = tmp_path / "apps.csv"
    emit_csv(sweep[:1], path, kind="app_allocations")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["R", "user_id", "app_index", "rate"]
    assert len(rows) == 1 + 8
    assert [row[2] for row in rows[1:3]] == ["1", "2"]  # app indices are 1-based


def test_emit_trace_csv(tmp_path, sweep):
    path = tmp_path / "trace.csv"
    emit_csv(sweep[:2], path, kind="trace")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["R", "round", "user_id", "bid", "price"]
    assert int(rows[1][1]) == 1
    assert len(rows) == 1 + (sweep[0].rounds + sweep[1].rounds) * 2  # two VIP bidders below 50
    # each row names its record's capacity, so the two records' rows stay apart
    assert [row[0] for row in rows[1:]] == (["5"] * sweep[0].rounds * 2
                                            + ["10"] * sweep[1].rounds * 2)


def test_emit_trace_requires_traces(tmp_path, cell):
    record = run_once(replace(cell, capacity=60.0))  # no keep_trace
    with pytest.raises(ContractError):
        emit_csv([record], tmp_path / "trace.csv", kind="trace")


def test_emit_rejects_empty_and_unknown_kind(tmp_path, sweep):
    with pytest.raises(ContractError):
        emit_csv([], tmp_path / "x.csv", kind="allocations")
    with pytest.raises(ContractError):
        emit_csv(sweep, tmp_path / "x.csv", kind="bids")


def test_emit_csv_deterministic(tmp_path, sweep):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(sweep, first, kind="allocations")
    emit_csv(sweep, second, kind="allocations")
    assert first.read_bytes() == second.read_bytes()
