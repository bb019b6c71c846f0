"""Per-layer tracing of nura from outside the package.

Each consuming module binds its callees with ``from .x import``, so the
tracer rebinds every name where it is looked up, wrapping it in a span
or a counter, and puts the original functions back on exit. Only the
traced run imports this module.

Spans nest on one stack. A span's self time is its duration minus the
durations of the spans directly inside it; utility-layer calls are
counted, not spanned, and the count goes to the innermost open span.
Coarse spans (down to one user's bid and one user's split) are kept in
memory and written out as JSON lines at the end; the per-application
demand spans, about 24k per reference sweep, are only totalled.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from functools import partial

# (module, attribute, span name, keep each span)
SPANNED = (
    ("nura.scenario", "run_once", "scenario.run_once", True),
    ("nura.scenario", "run_first_stage", "protocol.run_first_stage", True),
    ("nura.scenario", "allocate_internal", "intra_ue.allocate_internal", True),
    ("nura.protocol", "vip_bid", "price_response.vip_bid", True),
    ("nura.price_response", "user_rate_at_price", "price_response.user_rate_at_price", False),
    ("nura.price_response", "app_rate_at_price", "price_response.app_rate_at_price", False),
    ("nura.intra_ue", "app_rate_at_price", "price_response.app_rate_at_price", False),
    ("nura.oracle", "centralized_solve", "oracle.centralized_solve", True),
)
COUNTED = (
    ("SigmoidalUtility", "dlog_evaluate", 2),
    ("SigmoidalUtility", "log_evaluate", 3),
    ("LogarithmicUtility", "dlog_evaluate", 2),
    ("LogarithmicUtility", "log_evaluate", 3),
)
ROOT = "bench"


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    ``snapshot()`` returns the running totals as a flat mapping:
    ``<span>.calls``, ``.total_s``, ``.self_s``, ``.dlog``, ``.log_eval``,
    ``<parent>><child>.calls`` for each caller/callee pair, and
    ``damp_bid.calls``, ``damp_bid.clamped`` and ``protocol.rounds``.
    """

    def __init__(self) -> None:
        # frame: [name, child_s, dlog, log_eval, span_id, request_id]
        self._stack = [[ROOT, 0.0, 0, 0, 0, 0]]
        self._totals: dict[str, list] = {}
        self._counts: Counter = Counter()
        self._spans: list[tuple] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def __enter__(self) -> Tracer:
        try:
            for module_name, attr, name, keep in SPANNED:
                on_result = self._count_rounds if attr == "run_first_stage" else None
                self._patch(importlib.import_module(module_name), attr,
                            partial(self._spanned, name=name, keep=keep, on_result=on_result))
            self._patch(importlib.import_module("nura.price_response"), "damp_bid",
                        self._damp_counter)
            utility = importlib.import_module("nura.utility")
            for class_name, attr, slot in COUNTED:
                self._patch(getattr(utility, class_name), attr, partial(self._counter, slot=slot))
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _spanned(self, func, name: str, keep: bool, on_result):
        stack = self._stack
        totals = self._totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
        counts = self._counts
        spans = self._spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = request_id = 0
            if keep:
                self._next_id += 1
                span_id = self._next_id
                request_id = parent[5] or span_id
            frame = [name, 0.0, 0, 0, span_id, request_id]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                totals[3] += frame[2]
                totals[4] += frame[3]
                counts[parent[0], name] += 1
                if keep:
                    spans.append((span_id, parent[4], request_id, name, start, end,
                                  duration - frame[1]))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counter(self, func, slot: int):
        stack = self._stack

        def wrapper(utility, rate):
            stack[-1][slot] += 1
            return func(utility, rate)

        wrapper.__wrapped__ = func
        return wrapper

    def _damp_counter(self, func):
        counts = self._counts

        def wrapper(proposed, *args, **kwargs):
            result = func(proposed, *args, **kwargs)
            counts["damp_bid.calls"] += 1
            counts["damp_bid.clamped"] += result != proposed
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_rounds(self, result) -> None:
        self._counts["protocol.rounds"] += result.rounds_used

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {
            key if isinstance(key, str) else f"{key[0]}>{key[1]}.calls": value
            for key, value in self._counts.items()
        }
        root = self._stack[0]
        out[f"{ROOT}.dlog"] = root[2]
        out[f"{ROOT}.log_eval"] = root[3]
        for name, (calls, total_s, self_s, dlog, log_eval) in self._totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total_s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.dlog"] = dlog
            out[f"{name}.log_eval"] = log_eval
        return out

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "request", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
