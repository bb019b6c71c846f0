"""Pinned outcomes of scenario and schedule validation on a mutation corpus.

Every node of the bundled scenario and schedule trees is mutated in turn:
replaced by a value of the wrong type, by a non-finite, zero or negative
number, deleted, and (for mappings) given an unknown extra key. Each
mutated tree must either be accepted, as the pinned config, or be
rejected with a ValidationError whose violations name the pinned keys in
the pinned order. A violation's key is its path down to the last mapping
key (a list position is not a key), plus the key it quotes when it
reports an unknown or missing one; the wording of the message is free.

After a deliberate change to validation, rewrite the pins with
``python tests/test_validation_pins.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import yaml

from nura import (
    ValidationError,
    bundled_scenario_path,
    bundled_schedule_path,
    load_schedule,
    scenario,
    scenario_from_dict,
)

PINS = Path(__file__).with_name("validation_pins.json")
SOURCE = "S"

_NAMED_KEY = re.compile(r"(?:unknown|missing required) key ('[^']*')")
_TRAILING_INDEX = re.compile(r"(\[\d+\])+$")


def _walk(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _walk(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _walk(child, path + (index,))


def _replaced(tree, path, value):
    if not path:
        return value
    tree = copy.deepcopy(tree)
    parent = tree
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


_DELETE = object()


def _mutations(node, path):
    """(name, replacement) pairs for one node."""
    yield "type", 7 if isinstance(node, str) else "x"
    yield "bool", True
    yield "null", None
    yield "container", {"x": 1} if isinstance(node, list) else [1.0]
    yield "nan", float("nan")
    yield "inf", float("inf")
    yield "-inf", float("-inf")
    yield "zero", 0
    yield "negative", -1.0
    if path:
        yield "deleted", _DELETE
    if isinstance(node, dict):
        yield "extra", {**node, "zz_extra": 1}


def corpus(name: str, tree):
    """(tree id, mutated tree) for every mutation of every node."""
    for path, node in _walk(tree):
        label = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        for mutation, value in _mutations(node, path):
            yield f"{name} {label or '<root>'} {mutation}", _replaced(tree, path, value)


def _keys(violations, source):
    keys = []
    for violation in violations:
        where, _, message = violation.partition(": ")
        key = _TRAILING_INDEX.sub("", where.removeprefix(source))
        named = _NAMED_KEY.search(message)
        keys.append(f"{key} {named.group(1)}" if named else key)
    return keys


def _accepted(config) -> str:
    return "ok " + hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def outcome(kind: str, tree):
    """The pinned form of validating one tree: accepted config or violation keys.

    A schedule tree is handed to load_schedule in place of its parsed file.
    """
    with warnings.catch_warnings(), mock.patch.object(scenario, "_read_yaml", lambda _: tree):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            if kind == "scenario":
                return _accepted(scenario_from_dict(tree, source=SOURCE))
            return _accepted(load_schedule(SOURCE))
        except ValidationError as exc:
            return _keys(exc.violations, SOURCE)


def _trees():
    for kind, bundled in (("scenario", bundled_scenario_path()),
                          ("schedule", bundled_schedule_path())):
        base = yaml.safe_load(bundled.read_text(encoding="utf-8"))
        for tree_id, tree in corpus(kind, base):
            yield kind, tree_id, tree


def current_outcomes() -> dict:
    return {tree_id: outcome(kind, tree) for kind, tree_id, tree in _trees()}


def test_validation_outcomes_match_the_pins():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    found = current_outcomes()
    assert sorted(found) == sorted(pinned)
    changed = {tree_id: (pinned[tree_id], got)
               for tree_id, got in found.items() if got != pinned[tree_id]}
    assert not changed, f"{len(changed)} outcomes moved, e.g. {list(changed.items())[:5]}"


if __name__ == "__main__":
    outcomes = current_outcomes()
    PINS.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outcomes.items())
        + "\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {len(outcomes)} pins to {PINS}")
