"""Seeded inputs of the benchmark's workloads.

Each workload function returns the cells as ``(label, ScenarioConfig)``
pairs plus the seconds spent inside the scenario layer's loaders.
Generated cells are drawn as plain scenario trees and validated by
``nura.scenario.scenario_from_dict``, exactly as a YAML file would be, so
the library only ever receives ordinary ``ScenarioConfig`` objects.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import replace

from nura import scenario

CURVATURES = (0.1, 0.5, 1, 3, 10)
BETAS = (0.5, 1, 2, 5)

# Capacities of the paper's sweep: 10 scarce points (R <= 50, where the
# VIP targets exceed R) and 30 abundant ones.
SWEEP_CAPACITIES = tuple(5.0 * i for i in range(1, 41))
LARGE_CAPACITY = 3200.0


def ref_sweep(seed: int, points: int = len(SWEEP_CAPACITIES)):
    """The bundled cell over the sweep, then the bundled schedule at R = 200.

    The inputs are fixed; ``seed`` is accepted for a uniform interface.
    ``points`` shortens the sweep for smoke tests.
    """
    del seed
    start = time.perf_counter()
    cell = scenario.load_scenario(scenario.bundled_scenario_path())
    schedule = scenario.load_schedule(scenario.bundled_schedule_path())
    load_s = time.perf_counter() - start
    cells = [
        (f"R={capacity:g}", replace(cell, capacity=capacity))
        for capacity in SWEEP_CAPACITIES[:points]
    ]
    for index, epoch in enumerate(schedule.epochs):
        users = tuple(
            replace(
                user,
                apps=tuple(
                    replace(app, weight=weight)
                    for app, weight in zip(user.apps, epoch.weights[user.user_id])
                ),
            )
            for user in cell.users
        )
        cells.append((f"epoch{index + 1}", replace(cell, users=users)))
    return cells, load_s


def _weights(rng: random.Random, count: int) -> list[float]:
    raw = [rng.random() for _ in range(count)]
    total = sum(raw)
    return [value / total for value in raw]


def fuzz_trees(seed: int, count: int = 150) -> list[dict]:
    """Random scenario trees; the draw order is part of the definition.

    1-5 users, each VIP with probability 0.5, with 1-3 apps and weights
    normalised to sum 1; each app is sigmoidal (a from CURVATURES,
    b ~ U(5, 60)) or logarithmic (k from CURVATURES, r_max ~ U(20, 200))
    with equal odds; each VIP app carries a target ~ U(1, 30) with
    probability 0.6; beta from BETAS; R ~ U(5, 400).
    """
    rng = random.Random(seed)
    trees = []
    for trial in range(count):
        users = []
        for index in range(rng.randint(1, 5)):
            vip = rng.random() < 0.5
            weights = _weights(rng, rng.randint(1, 3))
            apps = []
            for weight in weights:
                if rng.random() < 0.5:
                    utility = {"kind": "sigmoidal", "a": rng.choice(CURVATURES),
                               "b": rng.uniform(5, 60)}
                else:
                    utility = {"kind": "logarithmic", "k": rng.choice(CURVATURES),
                               "r_max": rng.uniform(20, 200)}
                app = {"utility": utility, "weight": weight}
                if vip and rng.random() < 0.6:
                    app["target_rate"] = rng.uniform(1, 30)
                apps.append(app)
            users.append({"id": f"u{index}", "class": "vip" if vip else "regular",
                          "beta": rng.choice(BETAS), "apps": apps})
        trees.append({"description": f"fuzz {seed}/{trial}", "R": rng.uniform(5, 400),
                      "users": users})
    return trees


def large_tree(seed: int, users: int = 64) -> dict:
    """``users`` distinct users cycled from the four reference users.

    Each curve parameter is scaled by U(0.8, 1.2), the weights are drawn
    afresh, and a VIP's targeted (sigmoidal) app gets a target equal to
    its own jittered inflection point b.
    """
    reference = scenario.scenario_to_dict(
        scenario.load_scenario(scenario.bundled_scenario_path())
    )
    rng = random.Random(seed)
    out = []
    for index in range(users):
        ref = reference["users"][index % len(reference["users"])]
        weights = _weights(rng, len(ref["apps"]))
        apps = []
        for ref_app, weight in zip(ref["apps"], weights):
            utility = {
                key: value if key == "kind" else value * rng.uniform(0.8, 1.2)
                for key, value in ref_app["utility"].items()
            }
            app = {"utility": utility, "weight": weight}
            if "target_rate" in ref_app:
                app["target_rate"] = utility["b"]
            apps.append(app)
        out.append({"id": f"{ref['id']}-{index}", "class": ref["class"],
                    "beta": ref["beta"], "apps": apps})
    return {"description": f"large {seed}", "R": LARGE_CAPACITY,
            "protocol": reference["protocol"], "users": out}


def _from_trees(trees: list[dict]):
    start = time.perf_counter()
    with warnings.catch_warnings():
        # Capacities past the apps' saturation scale are legal inputs.
        warnings.simplefilter("ignore", RuntimeWarning)
        configs = [scenario.scenario_from_dict(tree) for tree in trees]
    load_s = time.perf_counter() - start
    return [(tree["description"], config) for tree, config in zip(trees, configs)], load_s


def fuzz_cells(seed: int, count: int = 150):
    return _from_trees(fuzz_trees(seed, count))


def large_cell(seed: int, users: int = 64):
    return _from_trees([large_tree(seed, users)])

