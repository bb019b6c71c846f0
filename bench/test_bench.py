"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import clock  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import nura.utility  # noqa: E402

SMALL = {
    "ref_sweep": lambda seed: cells.ref_sweep(seed, points=3),
    "fuzz_cells": lambda seed: cells.fuzz_cells(seed, count=12),
    "large_cell": lambda seed: cells.large_cell(seed, users=8),
}


def _measure(workload: str, seed: int = 3, trace_to=None) -> harness.Result:
    built, _ = SMALL[workload](seed)
    return harness.measure(built, 0.0, run.WORKLOADS[workload][0], 50, trace_to)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_run(workload):
    result = _measure(workload)
    assert result.attempted == len(result.passes) * len(result.passes[0].solve_s)
    assert len(result.digests) == 1
    if workload != "fuzz_cells":
        assert result.correct
    metrics = harness.end_to_end(result, 0.1, 50)
    assert set(metrics) == set(harness.END_TO_END_UNITS)
    assert all(metrics[name] > 0 for name in run.REPORTED_END_TO_END)


def test_fuzz_seed_7_counts_the_recorded_failures_without_aborting():
    built, _ = cells.fuzz_cells(7)
    result = harness.measure(built, 0.0, True, 50)
    assert result.attempted == 150
    assert dict(result.errors) == {"ContractError": 8}
    assert result.wrong == 11
    assert not result.correct


def test_generators_are_deterministic_per_seed():
    assert cells.fuzz_trees(5, 20) == cells.fuzz_trees(5, 20)
    assert cells.fuzz_trees(5, 20) != cells.fuzz_trees(6, 20)
    assert cells.large_tree(5, 8) == cells.large_tree(5, 8)
    assert cells.large_tree(5, 8) != cells.large_tree(6, 8)


def test_large_cell_users_are_distinct_and_targets_sit_at_b():
    (_, config), = cells.large_cell(11)[0]
    assert len(config.users) == 64
    curves = {tuple(app.utility for app in user.apps) for user in config.users}
    assert len(curves) == 64
    for user in config.users:
        for app in user.apps:
            if app.target_rate is not None:
                assert user.is_vip and app.target_rate == app.utility.b


def test_traced_digest_equals_untraced_and_layers_are_reported(tmp_path):
    spans = tmp_path / "spans.jsonl"
    traced = _measure("ref_sweep", trace_to=spans)
    untraced = _measure("ref_sweep")
    assert traced.correct and traced.traced
    assert traced.digests == untraced.digests
    layers = harness.per_layer(traced, 0.01)
    assert set(layers) == set(harness.PER_LAYER_UNITS)
    # The oracle calls no traced layer, so all of its time is its own.
    assert layers["oracle.self_s"] == layers["oracle.certify_s"]
    assert 0 < layers["price_response.clamped_frac"] < 1
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"scenario.run_once", "oracle.centralized_solve", "price_response.vip_bid"} <= names


def test_tracer_restores_every_patched_function():
    targets = [(importlib.import_module(module), attr) for module, attr, _, _ in tracer.SPANNED]
    targets.append((importlib.import_module("nura.price_response"), "damp_bid"))
    targets += [(getattr(nura.utility, cls), attr) for cls, attr, _ in tracer.COUNTED]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(owner.__dict__[attr] is not f for owner, attr, f in originals)
            raise RuntimeError("leave the block early")
    assert all(owner.__dict__[attr] is f for owner, attr, f in originals)


def test_untraced_run_never_imports_the_tracer():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import cells, harness\n"
        "harness.measure(cells.ref_sweep(0, points=1)[0], 0.0, True, 50)\n"
        "assert 'tracer' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")], check=True)


def test_clock_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with clock.NormalizedClock() as c, c.span() as timing:
        sum(range(10000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timing.seconds > 0 and timing.raw > 0


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED_END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == harness.END_TO_END_UNITS[m["name"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
