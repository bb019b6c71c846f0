"""Scenario files, capacity sweeps, weight schedules, and CSV emission.

A scenario is a small YAML tree: a capacity R, optional protocol
tunables, and a list of users with their applications. Validation is
collect-all: a bad file reports every violation in one pass instead of
failing on the first.

Weight schedules describe piecewise-constant application usage over
time; each epoch is re-solved from scratch (no state carries over), so
an epoch's allocation is identical to a one-shot run with those
weights.
"""

from __future__ import annotations

import csv
import math
import re
import reprlib
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import yaml

from .errors import ContractError, DomainError, NuraError, SweepError, ValidationError
from .protocol import ProtocolParams, RoundState, allocate_internal, run_first_stage, trace_records
from .utility import (
    Application,
    CaseFlag,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
    add_up,
)

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

# Each utility kind's name in files; its parameters are the class's fields.
_UTILITY_KINDS = {"sigmoidal": SigmoidalUtility, "logarithmic": LogarithmicUtility}
_TOP_KEYS = {"description", "R", "protocol", "users"}
_USER_KEYS = {"id", "class", "beta", "apps"}
_APP_KEYS = {f.name for f in fields(Application)}  # an app's file keys are its fields
_SCHEDULE_KEYS = {"description", "epochs"}
_EPOCH_KEYS = {"start", "end", "weights"}
_MAX_SWEEP_POINTS = 100_000  # at 0.57 ms a reference-cell point, about 57 s

# Quotes a value a message reports. YAML aliases let a short file build a
# tree deeper than the nesting bound sees and exponentially large, so the
# quote stops 2 levels down, after 4 items a level and at 40 characters a
# string, number or other value.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 2
_QUOTE.maxdict = _QUOTE.maxlist = _QUOTE.maxtuple = _QUOTE.maxset = 4
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 40


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: users in declaration order plus capacity."""

    users: tuple[UserProfile, ...]
    capacity: float
    protocol: ProtocolParams
    description: str = ""


@dataclass(frozen=True)
class Epoch:
    """One schedule interval with its per-user weight rows."""

    start: float
    end: float
    weights: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class WeightSchedule:
    epochs: tuple[Epoch, ...]
    description: str = ""


@dataclass(frozen=True)
class RunRecord:
    """Everything one solved scenario produced, ready for CSV emission."""

    scenario: str
    capacity: float
    case: CaseFlag
    user_rates: dict[str, float]
    app_rates: dict[str, tuple[float, ...]]
    rounds: int
    final_price: float
    trace: tuple[RoundState, ...] | None = None


# ---------------------------------------------------------------------------
# parsing helpers


def _check_keys(node: dict, allowed: set[str], path: str, violations: list[str]) -> None:
    for key in node:
        if key not in allowed:
            violations.append(f"{path}: unknown key {key!r}")


def _is_mapping(node, path: str, violations: list[str]) -> bool:
    ok = isinstance(node, dict)
    if not ok:
        violations.append(f"{path}: expected a mapping, got {_QUOTE.repr(node)}")
    return ok


def _is_nonempty_list(node, path: str, violations: list[str]) -> bool:
    ok = isinstance(node, list) and len(node) > 0
    if not ok:
        violations.append(f"{path}: expected a nonempty list")
    return ok


def _is_number(value, path: str, violations: list[str]) -> bool:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not ok:
        violations.append(f"{path}: expected a number, got {_QUOTE.repr(value)}")
    return ok


def _is_user_id(value, path: str, violations: list[str]) -> bool:
    ok = isinstance(value, str) and _ID_PATTERN.match(value) is not None
    if not ok:
        violations.append(
            f"{path}: expected a name of letters, digits, '_', '-', '.', "
            f"got {_QUOTE.repr(value)}"
        )
    return ok


def _as_float(value: int | float) -> float:
    """float(value), an integer beyond the float range becoming +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, path: str, violations: list[str], positive: bool = False) -> float | None:
    if not _is_number(value, path, violations):
        return None
    value = _as_float(value)
    if not math.isfinite(value):
        violations.append(f"{path}: must be finite, got {value!r}")
        return None
    if positive and value <= 0.0:
        violations.append(f"{path}: must be positive, got {value!r}")
        return None
    return value


def _get_number(
    node: dict,
    key: str,
    path: str,
    violations: list[str],
    *,
    required: bool = True,
    positive: bool = False,
    default: float | None = None,
) -> float | None:
    if key not in node:
        if required:
            violations.append(f"{path}: missing required key {key!r}")
        return default
    return _number(node[key], f"{path}.{key}", violations, positive)


def _top_level(raw, allowed: set[str], source: str, violations: list[str]) -> str:
    """Check a file's top-level mapping and keys; return its description."""
    if not isinstance(raw, dict):
        raise ValidationError(
            f"{source}: expected a mapping at top level, got {type(raw).__name__}"
        )
    _check_keys(raw, allowed, source, violations)
    description = raw.get("description", "")
    if isinstance(description, str):
        return description
    violations.append(f"{source}.description: expected a string")
    return ""


def _parse_utility(node, path: str, violations: list[str]):
    if not _is_mapping(node, path, violations):
        return None
    kind = node.get("kind")
    cls = _UTILITY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        kinds = " or ".join(map(repr, _UTILITY_KINDS))
        violations.append(f"{path}.kind: expected {kinds}, got {_QUOTE.repr(kind)}")
        return None
    names = [f.name for f in fields(cls)]
    _check_keys(node, {"kind", *names}, path, violations)
    values = [_get_number(node, name, path, violations, positive=True) for name in names]
    if None in values:
        return None
    try:  # the curve's own checks judge the parameters together
        return cls(*values)
    except DomainError as exc:
        violations.append(f"{path}: {exc}")
        return None


def _parse_protocol(node, path: str, violations: list[str]) -> ProtocolParams:
    """The keys are the fields of ProtocolParams, whose own checks judge each value."""
    kwargs = {}
    if _is_mapping(node, path, violations):
        _check_keys(node, {f.name for f in fields(ProtocolParams)}, path, violations)
        for f in fields(ProtocolParams):
            value = node.get(f.name)
            if f.name not in node or not _is_number(value, f"{path}.{f.name}", violations):
                continue
            if not isinstance(f.default, int):  # only an integer field keeps an int
                value = _as_float(value)
            try:
                ProtocolParams(**{f.name: value})
            except DomainError as exc:
                violations.append(f"{path}.{f.name}: {exc}")
            else:
                kwargs[f.name] = value
    return ProtocolParams(**kwargs)


def _check_weight_row(weights: list[float | None], path: str, violations: list[str]) -> bool:
    """One user's application weights: each in [0, 1], together summing to 1.

    None marks a weight already reported as unreadable; it fails the row
    and skips the sum check without a second report.
    """
    ok = None not in weights
    for j, w in enumerate(weights):
        if w is not None and not 0.0 <= w <= 1.0:
            violations.append(f"{path}[{j}]: weight must lie in [0, 1], got {w!r}")
            ok = False
    if ok and abs(add_up(weights) - 1.0) > 1e-9:
        violations.append(f"{path}: weights must sum to 1, got {add_up(weights)!r}")
        ok = False
    return ok


def _parse_app(node, path: str, violations: list[str]):
    """(utility, weight, target) of one application, None for unreadable parts."""
    if not _is_mapping(node, path, violations):
        return None, None, None
    _check_keys(node, _APP_KEYS, path, violations)
    utility = _parse_utility(node.get("utility"), f"{path}.utility", violations)
    weight = _get_number(node, "weight", path, violations)
    target = _get_number(
        node, "target_rate", path, violations, required=False, positive=True
    )
    return utility, weight, target


def _parse_user(node, path: str, violations: list[str]) -> UserProfile | None:
    if not _is_mapping(node, path, violations):
        return None
    _check_keys(node, _USER_KEYS, path, violations)
    uid = node.get("id")
    if not _is_user_id(uid, f"{path}.id", violations):
        uid = None
    cls_raw = node.get("class")
    try:
        cls = UserClass(cls_raw)
    except ValueError:
        violations.append(f"{path}.class: expected 'vip' or 'regular', "
                          f"got {_QUOTE.repr(cls_raw)}")
        cls = None
    beta = _get_number(node, "beta", path, violations, required=False,
                       positive=True, default=1.0)
    apps_node = node.get("apps")
    if not _is_nonempty_list(apps_node, f"{path}.apps", violations):
        return None
    parts = [
        _parse_app(app_node, f"{path}.apps[{j}]", violations)
        for j, app_node in enumerate(apps_node)
    ]
    apps_ok = _check_weight_row(
        [weight for _, weight, _ in parts], f"{path}.apps", violations
    )
    if cls is UserClass.REGULAR and any(target is not None for _, _, target in parts):
        violations.append(f"{path}: regular users must not carry target rates")
        apps_ok = False
    if any(utility is None for utility, _, _ in parts):
        apps_ok = False
    if uid is None or cls is None or beta is None or not apps_ok:
        return None
    apps = tuple(Application(*part) for part in parts)
    return UserProfile(user_id=uid, user_class=cls, beta=beta, apps=apps)


def scenario_from_dict(raw, source: str = "<dict>") -> ScenarioConfig:
    """Build and validate a ScenarioConfig, reporting all violations at once."""
    violations: list[str] = []
    description = _top_level(raw, _TOP_KEYS, source, violations)
    capacity = _get_number(raw, "R", source, violations, positive=True)
    params = _parse_protocol(raw.get("protocol", {}), f"{source}.protocol", violations)

    users_node = raw.get("users")
    users: list[UserProfile] = []
    if _is_nonempty_list(users_node, f"{source}.users", violations):
        for i, user_node in enumerate(users_node):
            user = _parse_user(user_node, f"{source}.users[{i}]", violations)
            if user is not None:
                users.append(user)
        ids = [u.user_id for u in users]
        for uid in sorted(set(uid for uid in ids if ids.count(uid) > 1)):
            violations.append(f"{source}.users: duplicate user id {uid!r}")

    if violations:
        raise ValidationError(
            f"{source}: scenario failed validation", violations=violations
        )
    assert capacity is not None
    config = ScenarioConfig(tuple(users), capacity, params, description)
    _warn_if_capacity_dwarfs_saturation(config)
    return config


def _warn_if_capacity_dwarfs_saturation(config: ScenarioConfig) -> None:
    # Past these per-app scales the utilities are flat (sigmoid > 0.999)
    # or formally above 1 (logarithmic beyond r_max); allocations out
    # there are legal but usually indicate a misconfigured capacity.
    saturation = add_up(
        u.b + 10.0 / u.a if isinstance(u, SigmoidalUtility) else u.r_max
        for u in (app.utility for user in config.users for app in user.apps)
    )
    if config.capacity > saturation:
        warnings.warn(
            f"capacity {config.capacity} exceeds the combined saturation scale "
            f"{saturation:.6g}; allocations beyond 100% utilization are plausible",
            RuntimeWarning,
            stacklevel=3,
        )


# PyYAML's libyaml parser where PyYAML was built with it. Both loaders
# share the Python resolver and constructor, so they build the same trees.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# A scenario nests 6 levels and a schedule 5. Both composers recurse per
# level: the Python one ends in a RecursionError near 1 000 levels, the C
# one overflows the C stack. Both scanners take time quadratic in the depth.
_MAX_YAML_DEPTH = 32


def _read_yaml(path):
    """Parse a UTF-8 YAML file, in C where PyYAML has libyaml (`_YAML_LOADER`).

    One pass over the parse events bounds the nesting before the load
    composes the tree. A file that is not UTF-8, that nests collections
    deeper than `_MAX_YAML_DEPTH`, or that is not YAML raises a
    ValidationError naming the byte offset or the line.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_YAML_LOADER):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_YAML_DEPTH:
                    raise ValidationError(
                        f"{path}: collections nested deeper than {_MAX_YAML_DEPTH} levels "
                        f"(line {event.start_mark.line + 1})")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ValidationError(f"{path}: cannot parse YAML{where}: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario YAML file."""
    return scenario_from_dict(_read_yaml(path), source=str(path))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-data form of a config; inverse of scenario_from_dict."""
    kinds = {cls: kind for kind, cls in _UTILITY_KINDS.items()}

    def app_node(app: Application) -> dict:
        node = {key: value for key, value in asdict(app).items() if value is not None}
        return {**node, "utility": {"kind": kinds[type(app.utility)], **node["utility"]}}

    users = [
        {
            "id": user.user_id,
            "class": user.user_class.value,
            "beta": user.beta,
            "apps": [app_node(app) for app in user.apps],
        }
        for user in config.users
    ]
    return {
        "description": config.description,
        "R": config.capacity,
        "protocol": {k: v for k, v in asdict(config.protocol).items() if v is not None},
        "users": users,
    }


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(scenario_to_dict(config), handle, sort_keys=False)


def _parse_epoch(node, path: str, violations: list[str]) -> Epoch | None:
    if not _is_mapping(node, path, violations):
        return None
    _check_keys(node, _EPOCH_KEYS, path, violations)
    start = _get_number(node, "start", path, violations)
    end = _get_number(node, "end", path, violations)
    if start is not None and end is not None and not end > start:
        violations.append(f"{path}: end must exceed start")
    weights_node = node.get("weights")
    if not _is_mapping(weights_node, f"{path}.weights", violations):
        weights_node = {}
    elif not weights_node:
        violations.append(f"{path}.weights: expected a nonempty mapping")
    weights: dict[str, tuple[float, ...]] = {}
    for uid, row in weights_node.items():
        row_path = f"{path}.weights[{uid!r}]"
        if not (_is_user_id(uid, row_path, violations)
                and _is_nonempty_list(row, row_path, violations)):
            continue
        values = [_number(w, f"{row_path}[{j}]", violations) for j, w in enumerate(row)]
        if _check_weight_row(values, row_path, violations):
            weights[uid] = tuple(values)
    if start is None or end is None or not weights:
        return None
    return Epoch(start=start, end=end, weights=weights)


def load_schedule(path) -> WeightSchedule:
    """Read and structurally validate a weight schedule YAML file.

    Compatibility with a particular scenario (matching user ids and
    application counts) is checked when the schedule is run.
    """
    raw = _read_yaml(path)
    source = str(path)
    violations: list[str] = []
    description = _top_level(raw, _SCHEDULE_KEYS, source, violations)
    epochs_node = raw.get("epochs")
    if not _is_nonempty_list(epochs_node, f"{source}.epochs", violations):
        epochs_node = []
    epochs = [
        _parse_epoch(node, f"{source}.epochs[{i}]", violations)
        for i, node in enumerate(epochs_node)
    ]
    if None not in epochs:
        for previous, current in zip(epochs, epochs[1:]):
            if abs(current.start - previous.end) > 1e-9:
                violations.append(
                    f"{source}: epochs must be contiguous; "
                    f"[{previous.start}, {previous.end}] is followed by "
                    f"[{current.start}, {current.end}]"
                )
    if violations:
        raise ValidationError(
            f"{source}: schedule failed validation", violations=violations
        )
    return WeightSchedule(epochs=tuple(epochs), description=description)


# ---------------------------------------------------------------------------
# runners


def run_once(config: ScenarioConfig, keep_trace: bool = False) -> RunRecord:
    """Solve both stages for one scenario under its protocol and collect the results."""
    first = run_first_stage(config.users, config.capacity, config.protocol)
    app_rates = {user.user_id: allocate_internal(user, first) for user in config.users}
    return RunRecord(
        scenario=config.description,
        capacity=config.capacity,
        case=first.case,
        user_rates=dict(first.rates),
        app_rates=app_rates,
        rounds=first.rounds_used,
        final_price=first.final_price,
        trace=first.trace if keep_trace else None,
    )


def sweep_R(
    config: ScenarioConfig,
    r_start: float,
    r_end: float,
    r_step: float,
    keep_trace: bool = False,
) -> list[RunRecord]:
    """Independent runs over capacities r_start, r_start + r_step, ..., r_end.

    The sweep always runs to completion; if any points failed with a
    NuraError, the collected errors are raised afterwards with the
    successful records attached. Any other exception is a bug and
    propagates at once. A sweep of over _MAX_SWEEP_POINTS points is refused.
    """
    if not (0.0 < r_start <= r_end < math.inf):
        raise ContractError(
            f"need finite 0 < r_start <= r_end, got r_start={r_start!r}, r_end={r_end!r}"
        )
    if not (0.0 < r_step < math.inf):
        raise ContractError(f"r_step must be positive and finite, got {r_step!r}")
    steps = (r_end - r_start) / r_step  # inf where it overflows
    span = steps + 1e-9
    if not span < _MAX_SWEEP_POINTS:
        raise ContractError(f"a sweep runs at most {_MAX_SWEEP_POINTS} points, got "
                            f"(r_end - r_start) / r_step = {span:.6g} steps past r_start")
    count = int(span) + 1
    capacities = [r_start + i * r_step for i in range(count)]
    if steps - (count - 1) <= 1e-9:  # r_step divides the range: end at r_end itself
        capacities[-1] = r_end
    records: list[RunRecord] = []
    failures: list[tuple[float, NuraError]] = []
    for capacity in capacities:
        point = replace(config, capacity=capacity)
        try:
            records.append(run_once(point, keep_trace=keep_trace))
        except NuraError as exc:  # gather every library failure, report at the end
            failures.append((capacity, exc))
    if failures:
        summary = "; ".join(f"R={capacity:g}: {exc}" for capacity, exc in failures)
        raise SweepError(
            f"{len(failures)} of {count} sweep points failed: {summary}",
            failures=failures,
            completed=records,
        )
    return records


def _apply_weights(config: ScenarioConfig, epoch: Epoch) -> ScenarioConfig:
    where = f"epoch [{epoch.start}, {epoch.end}]"
    ids = [user.user_id for user in config.users]
    violations = [
        f"{where}: no weights for user {uid!r}" for uid in ids if uid not in epoch.weights
    ]
    violations += [f"{where}: unknown user {uid!r}" for uid in epoch.weights if uid not in ids]
    users = []
    for user in config.users:
        row = epoch.weights.get(user.user_id)
        if row is None:
            continue
        if len(row) != len(user.apps):
            violations.append(
                f"{where}: user {user.user_id!r} has {len(user.apps)} applications "
                f"but {len(row)} weights"
            )
            continue
        apps = tuple(replace(app, weight=w) for app, w in zip(user.apps, row))
        users.append(replace(user, apps=apps))
    if violations:
        raise ValidationError("schedule does not fit the scenario", violations=violations)
    return replace(config, users=tuple(users))


def run_schedule(
    config: ScenarioConfig, schedule: WeightSchedule, keep_trace: bool = False
) -> list[tuple[Epoch, RunRecord]]:
    """Re-solve the scenario for every epoch's weight matrix."""
    results = []
    for epoch in schedule.epochs:
        epoch_config = _apply_weights(config, epoch)
        results.append((epoch, run_once(epoch_config, keep_trace=keep_trace)))
    return results


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(value: float) -> str:
    return format(value, ".9g")


def emit_csv(records: Sequence[RunRecord], path, kind: str) -> None:
    """Write records to a CSV file.

    kind selects the layout: 'allocations' (one row per user per run),
    'app_allocations' (one row per application), or 'trace' (per-round
    bid/price rows; the records must have been produced with traces
    kept); each row leads with its record's capacity R, records in the
    order given, users in declaration order, applications by index.
    """
    if not records:
        raise ContractError("nothing to write: empty record list")
    if kind == "allocations":
        header = ["R", "case", "user_id", "rate", "rounds", "final_price"]
        rows = [
            [
                _fmt(record.capacity),
                record.case.value,
                uid,
                _fmt(rate),
                str(record.rounds),
                _fmt(record.final_price),
            ]
            for record in records
            for uid, rate in record.user_rates.items()
        ]
    elif kind == "app_allocations":
        header = ["R", "user_id", "app_index", "rate"]
        rows = [
            [_fmt(record.capacity), uid, str(j + 1), _fmt(rate)]
            for record in records
            for uid, rates in record.app_rates.items()
            for j, rate in enumerate(rates)
        ]
    elif kind == "trace":
        header = ["R", "round", "user_id", "bid", "price"]
        rows = []
        for record in records:
            capacity = _fmt(record.capacity)
            rows.extend(
                [capacity, str(round_index), uid, _fmt(bid), _fmt(price)]
                for round_index, uid, bid, price in trace_records(record)
            )
    else:
        raise ContractError(
            f"kind must be 'allocations', 'app_allocations' or 'trace', got {kind!r}"
        )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _bundled(name: str) -> Path:
    from importlib import resources

    return Path(str(resources.files("nura").joinpath("data", name)))


def bundled_scenario_path() -> Path:
    """Filesystem path of the packaged reference scenario."""
    return _bundled("reference_cell.yaml")


def bundled_schedule_path() -> Path:
    """Filesystem path of the packaged reference weight schedule."""
    return _bundled("reference_schedule.yaml")
