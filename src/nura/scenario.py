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
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import yaml

from .errors import ContractError, DomainError, NuraError, SweepError, ValidationError
from .intra_ue import allocate_internal
from .protocol import CaseFlag, ProtocolParams, RoundState, run_first_stage, trace_records
from .utility import (
    Application,
    LogarithmicUtility,
    SigmoidalUtility,
    UserClass,
    UserProfile,
)

_ID_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

_TOP_KEYS = {"description", "R", "protocol", "users"}
_PROTOCOL_KEYS = {"delta", "l1", "l2", "max_rounds", "w_init", "price_floor"}
_USER_KEYS = {"id", "class", "beta", "apps"}
_APP_KEYS = {"utility", "weight", "target_rate"}
_SIGMOID_KEYS = {"kind", "a", "b"}
_LOG_KEYS = {"kind", "k", "r_max"}
_SCHEDULE_KEYS = {"description", "epochs"}
_EPOCH_KEYS = {"start", "end", "weights"}


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
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        violations.append(f"{path}.{key}: expected a number, got {value!r}")
        return None
    value = float(value)
    if not math.isfinite(value):
        violations.append(f"{path}.{key}: must be finite, got {value!r}")
        return None
    if positive and value <= 0.0:
        violations.append(f"{path}.{key}: must be positive, got {value!r}")
        return None
    return value


def _parse_utility(node, path: str, violations: list[str]):
    if not isinstance(node, dict):
        violations.append(f"{path}: expected a mapping, got {node!r}")
        return None
    kind = node.get("kind")
    if kind == "sigmoidal":
        _check_keys(node, _SIGMOID_KEYS, path, violations)
        a = _get_number(node, "a", path, violations, positive=True)
        b = _get_number(node, "b", path, violations, positive=True)
        if a is None or b is None:
            return None
        return SigmoidalUtility(a=a, b=b)
    if kind == "logarithmic":
        _check_keys(node, _LOG_KEYS, path, violations)
        k = _get_number(node, "k", path, violations, positive=True)
        r_max = _get_number(node, "r_max", path, violations, positive=True)
        if k is None or r_max is None:
            return None
        return LogarithmicUtility(k=k, r_max=r_max)
    violations.append(
        f"{path}.kind: expected 'sigmoidal' or 'logarithmic', got {kind!r}"
    )
    return None


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
    if ok and abs(sum(weights) - 1.0) > 1e-9:
        violations.append(f"{path}: weights must sum to 1, got {sum(weights)!r}")
        ok = False
    return ok


def _parse_app(node, path: str, violations: list[str]):
    """(utility, weight, target) of one application, None for unreadable parts."""
    if not isinstance(node, dict):
        violations.append(f"{path}: expected a mapping, got {node!r}")
        return None, None, None
    _check_keys(node, _APP_KEYS, path, violations)
    utility = _parse_utility(node.get("utility"), f"{path}.utility", violations)
    weight = _get_number(node, "weight", path, violations)
    target = _get_number(
        node, "target_rate", path, violations, required=False, positive=True
    )
    return utility, weight, target


def _parse_user(node, path: str, violations: list[str]) -> UserProfile | None:
    if not isinstance(node, dict):
        violations.append(f"{path}: expected a mapping, got {node!r}")
        return None
    _check_keys(node, _USER_KEYS, path, violations)
    uid = node.get("id")
    if not isinstance(uid, str) or not _ID_PATTERN.match(uid):
        violations.append(
            f"{path}.id: expected a name of letters, digits, '_', '-', '.', got {uid!r}"
        )
        uid = None
    cls_raw = node.get("class")
    try:
        cls = UserClass(cls_raw)
    except ValueError:
        violations.append(f"{path}.class: expected 'vip' or 'regular', got {cls_raw!r}")
        cls = None
    beta = _get_number(node, "beta", path, violations, required=False,
                       positive=True, default=1.0)
    apps_node = node.get("apps")
    if not isinstance(apps_node, list) or not apps_node:
        violations.append(f"{path}.apps: expected a nonempty list")
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
    if not isinstance(raw, dict):
        raise ValidationError(
            f"{source}: expected a mapping at top level, got {type(raw).__name__}"
        )
    _check_keys(raw, _TOP_KEYS, source, violations)
    description = raw.get("description", "")
    if not isinstance(description, str):
        violations.append(f"{source}.description: expected a string")
        description = ""
    capacity = _get_number(raw, "R", source, violations, positive=True)

    protocol_node = raw.get("protocol", {})
    params = ProtocolParams()
    if not isinstance(protocol_node, dict):
        violations.append(f"{source}.protocol: expected a mapping")
    else:
        _check_keys(protocol_node, _PROTOCOL_KEYS, f"{source}.protocol", violations)
        kwargs = {}
        for key in ("delta", "l1", "l2", "w_init", "price_floor"):
            value = _get_number(
                protocol_node, key, f"{source}.protocol", violations,
                required=False, positive=True,
            )
            if value is not None:
                kwargs[key] = value
        if "max_rounds" in protocol_node:
            max_rounds = protocol_node["max_rounds"]
            if isinstance(max_rounds, bool) or not isinstance(max_rounds, int) or max_rounds < 2:
                violations.append(
                    f"{source}.protocol.max_rounds: expected an integer >= 2, "
                    f"got {max_rounds!r}"
                )
            else:
                kwargs["max_rounds"] = max_rounds
        try:
            params = ProtocolParams(**kwargs)
        except DomainError as exc:
            violations.append(f"{source}.protocol: {exc}")

    users_node = raw.get("users")
    users: list[UserProfile] = []
    if not isinstance(users_node, list) or not users_node:
        violations.append(f"{source}.users: expected a nonempty list")
    else:
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
    config = ScenarioConfig(
        users=tuple(users),
        capacity=capacity,
        protocol=params,
        description=description,
    )
    _warn_if_capacity_dwarfs_saturation(config)
    return config


def _warn_if_capacity_dwarfs_saturation(config: ScenarioConfig) -> None:
    # Past these per-app scales the utilities are flat (sigmoid > 0.999)
    # or formally above 1 (logarithmic beyond r_max); allocations out
    # there are legal but usually indicate a misconfigured capacity.
    saturation = 0.0
    for user in config.users:
        for app in user.apps:
            u = app.utility
            if isinstance(u, SigmoidalUtility):
                saturation += u.b + 10.0 / u.a
            else:
                saturation += u.r_max
    if config.capacity > saturation:
        warnings.warn(
            f"capacity {config.capacity} exceeds the combined saturation scale "
            f"{saturation:.6g}; allocations beyond 100% utilization are plausible",
            RuntimeWarning,
            stacklevel=3,
        )


def _read_yaml(path):
    """Parse a YAML file; syntax errors become a ValidationError naming the line."""
    with open(path, encoding="utf-8") as handle:
        try:
            return yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1})" if mark is not None else ""
            raise ValidationError(f"{path}: cannot parse YAML{where}: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario YAML file."""
    return scenario_from_dict(_read_yaml(path), source=str(path))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-data form of a config; inverse of scenario_from_dict."""
    protocol: dict = {
        "delta": config.protocol.delta,
        "l1": config.protocol.l1,
        "l2": config.protocol.l2,
        "max_rounds": config.protocol.max_rounds,
        "price_floor": config.protocol.price_floor,
    }
    if config.protocol.w_init is not None:
        protocol["w_init"] = config.protocol.w_init
    users = []
    for user in config.users:
        apps = []
        for app in user.apps:
            u = app.utility
            if isinstance(u, SigmoidalUtility):
                utility = {"kind": "sigmoidal", "a": u.a, "b": u.b}
            else:
                utility = {"kind": "logarithmic", "k": u.k, "r_max": u.r_max}
            app_node: dict = {"utility": utility, "weight": app.weight}
            if app.target_rate is not None:
                app_node["target_rate"] = app.target_rate
            apps.append(app_node)
        users.append(
            {
                "id": user.user_id,
                "class": user.user_class.value,
                "beta": user.beta,
                "apps": apps,
            }
        )
    return {
        "description": config.description,
        "R": config.capacity,
        "protocol": protocol,
        "users": users,
    }


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(scenario_to_dict(config), handle, sort_keys=False)


def load_schedule(path) -> WeightSchedule:
    """Read and structurally validate a weight schedule YAML file.

    Compatibility with a particular scenario (matching user ids and
    application counts) is checked when the schedule is run.
    """
    raw = _read_yaml(path)
    source = str(path)
    violations: list[str] = []
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: expected a mapping at top level")
    _check_keys(raw, _SCHEDULE_KEYS, source, violations)
    description = raw.get("description", "")
    if not isinstance(description, str):
        violations.append(f"{source}.description: expected a string")
        description = ""
    epochs_node = raw.get("epochs")
    epochs: list[Epoch] = []
    if not isinstance(epochs_node, list) or not epochs_node:
        violations.append(f"{source}.epochs: expected a nonempty list")
        epochs_node = []
    for i, node in enumerate(epochs_node):
        path_i = f"{source}.epochs[{i}]"
        if not isinstance(node, dict):
            violations.append(f"{path_i}: expected a mapping")
            continue
        _check_keys(node, _EPOCH_KEYS, path_i, violations)
        start = _get_number(node, "start", path_i, violations)
        end = _get_number(node, "end", path_i, violations)
        if start is not None and end is not None and not end > start:
            violations.append(f"{path_i}: end must exceed start")
        weights_node = node.get("weights")
        weights: dict[str, tuple[float, ...]] = {}
        if not isinstance(weights_node, dict) or not weights_node:
            violations.append(f"{path_i}.weights: expected a nonempty mapping")
        else:
            for uid, row in weights_node.items():
                row_path = f"{path_i}.weights[{uid!r}]"
                if not isinstance(uid, str) or not _ID_PATTERN.match(uid):
                    violations.append(f"{row_path}: bad user id")
                    continue
                if not isinstance(row, list) or not row:
                    violations.append(f"{row_path}: expected a nonempty list of weights")
                    continue
                values = []
                for w in row:
                    if isinstance(w, bool) or not isinstance(w, (int, float)):
                        violations.append(f"{row_path}: expected numbers, got {w!r}")
                        values.append(None)
                    else:
                        values.append(float(w))
                if _check_weight_row(values, row_path, violations):
                    weights[uid] = tuple(values)
        if start is None or end is None or not weights:
            continue
        epochs.append(Epoch(start=start, end=end, weights=weights))
    if len(epochs) == len(epochs_node):
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


def run_once(
    config: ScenarioConfig,
    params: ProtocolParams | None = None,
    keep_trace: bool = False,
) -> RunRecord:
    """Solve both stages for one scenario and collect the results."""
    if params is None:
        params = config.protocol
    first = run_first_stage(config.users, config.capacity, params)
    app_rates = {
        user.user_id: allocate_internal(
            user, first.rates[user.user_id], first.case, first.final_price / user.beta
        ).rates
        for user in config.users
    }
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
    propagates at once.
    """
    if not (0.0 < r_start <= r_end):
        raise ContractError(
            f"need 0 < r_start <= r_end, got r_start={r_start!r}, r_end={r_end!r}"
        )
    if r_step <= 0.0:
        raise ContractError(f"r_step must be positive, got {r_step!r}")
    count = int(math.floor((r_end - r_start) / r_step + 1e-9)) + 1
    records: list[RunRecord] = []
    failures: list[tuple[float, NuraError]] = []
    for i in range(count):
        capacity = r_start + i * r_step
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
    violations = []
    missing = [u.user_id for u in config.users if u.user_id not in epoch.weights]
    extra = [uid for uid in epoch.weights if uid not in {u.user_id for u in config.users}]
    for uid in missing:
        violations.append(f"epoch [{epoch.start}, {epoch.end}]: no weights for user {uid!r}")
    for uid in extra:
        violations.append(f"epoch [{epoch.start}, {epoch.end}]: unknown user {uid!r}")
    users = []
    for user in config.users:
        row = epoch.weights.get(user.user_id)
        if row is None:
            continue
        if len(row) != len(user.apps):
            violations.append(
                f"epoch [{epoch.start}, {epoch.end}]: user {user.user_id!r} has "
                f"{len(user.apps)} applications but {len(row)} weights"
            )
            continue
        users.append(
            replace(
                user,
                apps=tuple(
                    replace(app, weight=w) for app, w in zip(user.apps, row)
                ),
            )
        )
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
    kept). Rows appear in ascending capacity order as given, users in
    declaration order, applications by index.
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
        header = ["round", "user_id", "bid", "price"]
        rows = []
        for record in records:
            if record.trace is None:
                raise ContractError(
                    "trace emission requires records produced with keep_trace"
                )
            rows.extend(
                [str(round_index), uid, _fmt(bid), _fmt(price)]
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


def bundled_scenario_path() -> Path:
    """Filesystem path of the packaged reference scenario."""
    from importlib import resources

    return Path(str(resources.files("nura").joinpath("data/reference_cell.yaml")))


def bundled_schedule_path() -> Path:
    """Filesystem path of the packaged reference weight schedule."""
    from importlib import resources

    return Path(str(resources.files("nura").joinpath("data/reference_schedule.yaml")))
