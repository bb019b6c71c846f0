"""Wall-clock timing rescaled to a fixed host speed.

The machines this benchmark runs on share their cores with other
tenants, and the same pure-Python call can take twice as long for tens
of seconds at a time. A fixed pure-Python kernel slows down with it, so
each timed call is paired with kernel timings taken just before it, just
after it and, on a 5 ms interval timer, while it runs. A call's time is
reported as raw_time * REFERENCE_KERNEL_S * mean(1 / kernel_time), i.e.
in seconds of a host on which the kernel takes REFERENCE_KERNEL_S.
Interval-timer work done inside a call is subtracted from its raw time.

On the reference sweep (7396 calls on 2 vCPUs), calls grouped into
quartiles of host speed, judged by a second, independent kernel, had raw
median times of 0.59-1.13 of the overall median and rescaled ones of
0.99-1.01.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_KERNEL_S = 110e-6
TICK_S = 0.005


@dataclass(frozen=True)
class _Curve:
    a: float
    b: float

    def dlog(self, rate: float) -> float:
        ab = self.a * self.b
        x = self.a * (rate - self.b)
        scale = self.a * (1.0 + math.exp(-ab))
        if x > 700.0:
            return scale * math.exp(-x)
        return scale / (math.exp(x) + 1.0 - math.exp(-ab) - math.exp(-self.a * rate))


@dataclass(frozen=True)
class _App:
    curve: _Curve
    weight: float


_APPS = (_App(_Curve(3.0, 20.0), 0.5), _App(_Curve(1.0, 30.0), 0.9))
_PRICES = (0.005, 0.0075, 0.01125)


def _demand(app: _App, price: float) -> float:
    def excess(rate: float) -> float:
        return app.weight * app.curve.dlog(rate) - price

    lo, hi = 0.0, 200.0
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def kernel() -> float:
    """Fixed work shaped like the library's hot path: demand bisections
    over a frozen dataclass's log-derivative."""
    return sum(_demand(app, price) for app in _APPS for price in _PRICES)


class NormalizedClock:
    """Interval-timer sampler of host speed; a context manager.

    While entered, SIGALRM runs the kernel every TICK_S and records its
    duration. ``span()`` times one call.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._stolen = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> NormalizedClock:
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        mid = time.perf_counter()
        self._samples.append(mid - start)
        self._stolen += time.perf_counter() - start
        self._busy = False

    def _kernel_sample(self) -> float:
        stolen = self._stolen
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start - (self._stolen - stolen)

    @contextmanager
    def span(self):
        """Time the body of a ``with`` block; exceptions pass through.

        Yields a Timing whose ``raw`` is wall seconds minus timer work and
        whose ``seconds`` is the same time at the reference host speed.
        """
        timing = Timing()
        before = self._kernel_sample()
        first_tick = len(self._samples)
        stolen = self._stolen
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing.raw = end - start - (self._stolen - stolen)
            samples = [before, *self._samples[first_tick:], self._kernel_sample()]
            speed = sum(1.0 / sample for sample in samples) / len(samples)
            timing.seconds = timing.raw * REFERENCE_KERNEL_S * speed


@dataclass
class Timing:
    raw: float = 0.0
    seconds: float = 0.0
