"""Measuring loop, output checks and metrics of the nura benchmark.

One caller solves one cell at a time (a closed loop, one process, no
threads). A pass runs ``run_once`` on every cell of the workload and,
where the workload certifies every pass, ``centralized_solve`` on every
cell too. Passes repeat until the window ends. Every pass is checked:
user rates conserve R, app rates conserve each user rate, every user is
within max(0.1, 0.5%*R) of the certified optimum, and the output digest
equals that of the first pass.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import nura.oracle
import nura.scenario
from nura.errors import NuraError

from clock import NormalizedClock

CONSERVATION_RTOL = 1e-6
TAIL_BEYOND = 10
# Share of a traced run's window spent on untraced passes, the base of
# trace_overhead_frac.
REFERENCE_SHARE = 1.0 / 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "solve_total_s": "s",
    "certify_ms_p50": "ms",
    "certify_total_s": "s",
    "fail_frac": "ratio",
    "wrong_frac": "ratio",
    "certify_fail_frac": "ratio",
    "max_dev_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "utility.dlog_calls": "count",
    "utility.log_eval_calls": "count",
    "price_response.demand_calls": "count",
    "price_response.demand_s": "s",
    "price_response.dlog_per_demand": "ratio",
    "price_response.clamped_frac": "ratio",
    "protocol.rounds": "count",
    "protocol.stage_s": "s",
    "protocol.self_s": "s",
    "intra_ue.split_s": "s",
    "intra_ue.self_s": "s",
    "intra_ue.demand_calls_per_split": "ratio",
    "scenario.run_once_s": "s",
    "scenario.self_s": "s",
    "scenario.load_s": "s",
    "oracle.certify_s": "s",
    "oracle.dlog_calls": "count",
    "oracle.log_eval_calls": "count",
    "oracle.self_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Pass:
    solve_s: list[float] = field(default_factory=list)
    certify_s: list[float] = field(default_factory=list)
    raw_s: float = 0.0
    digest: str = ""
    layers: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(self.solve_s) + sum(self.certify_s)


@dataclass
class Result:
    passes: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    certified: int = 0
    errors: Counter = field(default_factory=Counter)
    certify_errors: Counter = field(default_factory=Counter)
    conservation_violations: int = 0
    max_dev_ratio: float = 0.0

    @property
    def digests(self) -> set[str]:
        return {p.digest for p in self.passes + self.traced}

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and not self.certify_errors
                and len(self.digests) == 1)


def _outcome_key(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    return repr((outcome.case.value, list(outcome.user_rates.items()),
                 list(outcome.app_rates.items()), outcome.rounds, outcome.final_price))


def digest(outcomes) -> str:
    """SHA-256 of user and app rates, rounds and final price of every cell."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(_outcome_key(outcome).encode())
    return h.hexdigest()


def _conserves(config, record) -> bool:
    total = sum(record.user_rates.values())
    if abs(total - config.capacity) > CONSERVATION_RTOL * config.capacity:
        return False
    return all(
        abs(sum(record.app_rates[uid]) - rate) <= CONSERVATION_RTOL * max(rate, 1.0)
        for uid, rate in record.user_rates.items()
    )


def _timed(clock: NormalizedClock, call, *args):
    """(outcome, seconds, raw): a NuraError becomes its class name."""
    try:
        with clock.span() as timing:
            outcome = call(*args)
    except NuraError as exc:
        outcome = type(exc).__name__
    return outcome, timing.seconds, timing.raw


def _certify(cells, clock, result: Result) -> tuple[list, list[float], float]:
    # Looked up at call time so that the tracer's rebinding applies.
    solve = nura.oracle.centralized_solve
    oracle, times, raw = [], [], 0.0
    for _, config in cells:
        outcome, seconds, raw_s = _timed(clock, solve, config.users, config.capacity)
        oracle.append(outcome)
        times.append(seconds)
        raw += raw_s
        result.certified += 1
        if isinstance(outcome, str):
            result.certify_errors[outcome] += 1
    return oracle, times, raw


def _solve_pass(cells, clock, result: Result, oracle, certify: bool) -> tuple[Pass, list]:
    run_once = nura.scenario.run_once
    p = Pass()
    outcomes = []
    for _, config in cells:
        outcome, seconds, raw = _timed(clock, run_once, config)
        outcomes.append(outcome)
        p.solve_s.append(seconds)
        p.raw_s += raw
    if certify:
        oracle, p.certify_s, raw = _certify(cells, clock, result)
        p.raw_s += raw
    p.digest = digest(outcomes)
    for (_, config), outcome, reference in zip(cells, outcomes, oracle):
        result.attempted += 1
        if isinstance(outcome, str):
            result.errors[outcome] += 1
            result.failed += 1
            continue
        bad = not _conserves(config, outcome)
        result.conservation_violations += bad
        if not isinstance(reference, str):
            tol = max(0.1, 0.005 * config.capacity)
            dev = max(abs(rate - reference.user_rates[uid]) / tol
                      for uid, rate in outcome.user_rates.items())
            result.max_dev_ratio = max(result.max_dev_ratio, dev)
            if dev > 1.0:
                result.wrong += 1
                bad = True
        result.failed += bad
    return p, oracle


def measure(cells, seconds: float, certify_every_pass: bool, tail_percentile: float,
            trace_to=None) -> Result:
    """Solve and check the cells in passes until ``seconds`` have elapsed
    and at least TAIL_BEYOND solve times lie above ``tail_percentile``.

    A workload that does not certify every pass is certified once, before
    the window opens, and that certification is booked to the first pass.
    A traced run (``trace_to`` names the spans file) certifies every
    pass; the first REFERENCE_SHARE of its window runs untraced passes
    and the rest traced ones, each with the change in the tracer's totals.
    """
    result = Result()
    certify_each = certify_every_pass or trace_to is not None
    min_solves = 0
    if trace_to is None:
        min_solves = math.ceil(TAIL_BEYOND / (1.0 - tail_percentile / 100.0))
    with NormalizedClock() as clock:
        oracle = None
        if not certify_each:
            oracle, once, _ = _certify(cells, clock, result)
        start = time.perf_counter()
        window = seconds * REFERENCE_SHARE if trace_to is not None else seconds
        while True:
            p, oracle = _solve_pass(cells, clock, result, oracle, certify_each)
            result.passes.append(p)
            if (time.perf_counter() - start >= window
                    and len(result.passes) * len(cells) >= min_solves):
                break
        if not certify_each:
            result.passes[0].certify_s = once
        if trace_to is not None:
            import tracer  # only the traced run loads the tracer

            with tracer.Tracer() as tr:
                before = tr.snapshot()
                while True:
                    p, oracle = _solve_pass(cells, clock, result, oracle, True)
                    after = tr.snapshot()
                    p.layers = {k: v - before.get(k, 0) for k, v in after.items()}
                    before = after
                    result.traced.append(p)
                    if time.perf_counter() - start >= seconds:
                        break
            tr.write_spans(trace_to)
    return result


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def end_to_end(result: Result, setup_s: float, tail_percentile: float) -> dict[str, float]:
    solve = [s for p in result.passes for s in p.solve_s]
    certify = [s for p in result.passes for s in p.certify_s]
    return {
        "setup_s": setup_s,
        "solve_ms_p50": 1e3 * statistics.median(solve),
        "solve_ms_tail": 1e3 * percentile(solve, tail_percentile),
        "solve_total_s": statistics.median(sum(p.solve_s) for p in result.passes),
        "certify_ms_p50": 1e3 * statistics.median(certify),
        "certify_total_s": statistics.median(
            sum(p.certify_s) for p in result.passes if p.certify_s
        ),
        "fail_frac": sum(result.errors.values()) / result.attempted,
        "wrong_frac": result.wrong / result.attempted,
        "certify_fail_frac": sum(result.certify_errors.values()) / result.certified,
        "max_dev_ratio": result.max_dev_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


RUN = "scenario.run_once"
STAGE = "protocol.run_first_stage"
SPLIT = "intra_ue.allocate_internal"
DEMAND = "price_response.app_rate_at_price"
ORACLE = "oracle.centralized_solve"


def _total(d: dict, suffix: str) -> float:
    return sum(value for key, value in d.items() if key.endswith(suffix))


# Each maps one traced pass's totals d, and the factor f that rescales its
# raw times to the reference host speed, to the metric's value.
_LAYER_FORMULAS = {
    "utility.dlog_calls": lambda d, f: _total(d, ".dlog"),
    "utility.log_eval_calls": lambda d, f: _total(d, ".log_eval"),
    "price_response.demand_calls": lambda d, f: d[f"{DEMAND}.calls"],
    "price_response.demand_s": lambda d, f: f * d[f"{DEMAND}.total_s"],
    "price_response.dlog_per_demand": lambda d, f: d[f"{DEMAND}.dlog"] / d[f"{DEMAND}.calls"],
    "price_response.clamped_frac": lambda d, f: d["damp_bid.clamped"] / d["damp_bid.calls"],
    "protocol.rounds": lambda d, f: d["protocol.rounds"],
    "protocol.stage_s": lambda d, f: f * d[f"{STAGE}.total_s"],
    "protocol.self_s": lambda d, f: f * d[f"{STAGE}.self_s"],
    "intra_ue.split_s": lambda d, f: f * d[f"{SPLIT}.total_s"],
    "intra_ue.self_s": lambda d, f: f * d[f"{SPLIT}.self_s"],
    "intra_ue.demand_calls_per_split":
        lambda d, f: d.get(f"{SPLIT}>{DEMAND}.calls", 0) / d[f"{SPLIT}.calls"],
    "scenario.run_once_s": lambda d, f: f * d[f"{RUN}.total_s"],
    "scenario.self_s": lambda d, f: f * d[f"{RUN}.self_s"],
    "oracle.certify_s": lambda d, f: f * d[f"{ORACLE}.total_s"],
    "oracle.dlog_calls": lambda d, f: d[f"{ORACLE}.dlog"],
    "oracle.log_eval_calls": lambda d, f: d[f"{ORACLE}.log_eval"],
    "oracle.self_s": lambda d, f: f * d[f"{ORACLE}.self_s"],
}


def per_layer(result: Result, load_s: float) -> dict[str, float]:
    """Median over traced passes of each layer's per-pass value."""
    out = {
        name: statistics.median(formula(p.layers, p.seconds / p.raw_s) for p in result.traced)
        for name, formula in _LAYER_FORMULAS.items()
    }
    out["scenario.load_s"] = load_s
    out["trace_overhead_frac"] = (
        statistics.median(p.seconds for p in result.traced)
        / statistics.median(p.seconds for p in result.passes) - 1.0
    )
    return out
