"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve clears one global price. Each application's demand at
a price is the rate, at most its cap, its user's cap and the budget,
where its marginal value factor * (ln U)'(rate + offset) meets the
price, found by the oracle's own Illinois steps (regula falsi that
halves a stale end's value) on dlog_evaluate alone. Each distinct row
(curve, factor, offset, limit) is searched once per price, with its
bound dlog_evaluate and ln factor taken once per solve. It never calls
the production demand solver or its Newton kernel, so a bug there
cannot certify itself; only the statement of the problem (the regime
table and the objective of the utility module) is shared with the
pipeline. One clearing routine takes Illinois steps on the price in
ln p until total demand, added left to right, meets the budget,
starting each demand from its rates at the ends of the price bracket,
which enclose it. Where a demand jumps across one representable price
it tops every application up from its demand at the upper price toward
its demand at the lower one, by the same fraction. The same routine
splits a capped user's share among its applications.

grid_search_solve is the brute-force anti-hallucination oracle for tiny
instances: exhaustive enumeration over the step-grid of the feasible
simplex, ties broken toward the lexicographically smallest tuple. It
uses no derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ContractError, DomainError, SolverError
from .utility import NEG_INF, RegimeTable, UserProfile, add_up, objective, regime_table

_FLOAT_MAX = sys.float_info.max
_PRICE_FLOOR = math.ulp(0.0)  # the smallest positive float
# A step that finds its bracket not halved within the last _STALL_STEPS
# steps bisects it, so the bracket halves at least once in every 5 steps.
# A rate bracket, under 2^1024 wide, reaches adjacent floats (2^-1074
# apart) within 2098 halvings. A price bracket spans one step out, a
# factor of at most 2^512, so it is under 2^9 wide in ln p and reaches
# adjacent floats (2^-53 apart in ln p) within 62. The bounds leave a
# few halvings to rounding.
_STALL_STEPS = 4
_MAX_DEMAND_STEPS = 5 * 2100
_MAX_PRICE_STEPS = 5 * 70


@dataclass(frozen=True)
class OracleResult:
    """Solution of the global problem.

    user_rates and app_rates cover every user (zeros for users excluded
    under scarce capacity); app_rates are final per-application rates,
    targets included when capacity is abundant. objective is the
    weighted log-domain value over participating users.
    """

    user_rates: dict[str, float]
    app_rates: dict[str, tuple[float, ...]]
    objective: float
    method: str


class _Illinois:
    """Step fractions for a bracket [lo, hi] around the root of a
    decreasing function, valued f_lo >= 0 at lo and f_hi <= 0 at hi.

    A step goes to the fraction f_lo / (f_lo - f_hi) of the bracket
    (regula falsi); an end kept twice running has its value halved
    (Illinois, Dowell & Jarratt 1971), so both ends close in. A step
    that finds the bracket not halved within the last _STALL_STEPS steps
    bisects it instead, which bounds the steps to close any bracket.
    """

    def __init__(self, f_lo: float, f_hi: float) -> None:
        self.f_lo, self.f_hi = f_lo, f_hi
        self.kept = 0  # +1: hi kept by the last step, -1: lo kept
        self.widths: list[float] = []

    def fraction(self, width: float) -> float:
        """Where the next step goes, as a fraction of the bracket (nan if
        an end's value is infinite; the caller then bisects)."""
        self.widths.append(width)
        if len(self.widths) > _STALL_STEPS and width > 0.5 * self.widths[-1 - _STALL_STEPS]:
            return 0.5
        gap = self.f_lo - self.f_hi
        return self.f_lo / gap if gap > 0.0 else 0.5

    def moved(self, value: float) -> None:
        """Record the value at the new point: it replaces lo if > 0, else hi."""
        if value > 0.0:
            if self.kept > 0:
                self.f_hi *= 0.5
            self.f_lo, self.kept = value, 1
        else:
            if self.kept < 0:
                self.f_lo *= 0.5
            self.f_hi, self.kept = value, -1


def _demand(row: tuple | None, log_price: float, lo: float, hi: float) -> float:
    """Rate in [0, limit] maximizing factor * ln U(rate + offset) - price * rate.

    row is (bound dlog_evaluate, ln factor, offset, limit), or None for a
    zero factor. ln U is strictly concave, so this is where ln(factor *
    (ln U)') falls to ln price; _Illinois's steps, written out, find it on
    that difference, which decreases in the rate. The search starts from
    [lo, hi]: 0 and limit, or the rates at a higher and at a lower price,
    approximations, so an end whose sign fails falls back to 0 or limit.
    """
    if row is None:
        return 0.0
    dlog, log_factor, offset, limit = row
    shift = log_price - log_factor

    def excess(rate: float) -> float:
        arg = rate + offset
        if arg <= 0.0:
            return math.inf
        slope = dlog(arg)
        return math.log(slope) - shift if slope > 0.0 else -math.inf

    f_lo = excess(lo)
    if f_lo <= 0.0:  # the demand is at most lo
        if f_lo == 0.0 or lo == 0.0:
            return lo
        hi, f_hi = lo, f_lo
        lo, f_lo = 0.0, excess(0.0)
        if f_lo <= 0.0:
            return 0.0
    else:
        f_hi = excess(hi)
        if f_hi >= 0.0:  # the demand is at least hi
            if f_hi == 0.0 or hi == limit:
                return hi
            lo, f_lo = hi, f_hi
            hi, f_hi = limit, excess(limit)
            if f_hi >= 0.0:
                return limit
    kept, widths = 0, []  # _Illinois's kept and widths
    for step in range(_MAX_DEMAND_STEPS):
        width = hi - lo
        if width <= 1e-12 * hi:
            break
        widths.append(width)
        gap = f_lo - f_hi
        stalled = step >= _STALL_STEPS and width > 0.5 * widths[step - _STALL_STEPS]
        rate = lo + (0.5 if stalled or not gap > 0.0 else f_lo / gap) * width
        if not lo < rate < hi:
            rate = lo + 0.5 * width
            if not lo < rate < hi:
                break  # adjacent floats
        value = excess(rate)
        if value == 0.0:
            return rate
        if value > 0.0:
            if kept > 0:
                f_hi *= 0.5
            lo, f_lo, kept = rate, value, 1
        else:
            if kept < 0:
                f_lo *= 0.5
            hi, f_hi, kept = rate, value, -1
    else:
        raise SolverError(f"demand bracket ({lo}, {hi}) did not close", bracket=(lo, hi))
    return lo + 0.5 * (hi - lo)


def _clear(demand: Callable[..., tuple[list[float], list[float]]], budget: float) -> list[float]:
    """Amounts summing to budget at the price where demand meets it.

    demand(price, higher, lower) returns nonincreasing amounts and the
    per-row rates behind them; higher and lower, when given, are the
    rates at a higher and at a lower price, which enclose those at this
    one. The price is bracketed by steps out from 1 by a factor that
    starts at 2 and squares on each repeat, then found by Illinois steps
    on total demand minus budget in ln p, until the demands at both ends
    agree with the budget or the bracket collapses onto adjacent floats,
    where some demand jumps. The answer starts from the feasible upper
    end and tops every amount up toward its demand at the lower end by
    the one fraction that spends the budget, so no amount leaves the
    range it spans.
    """
    def trial(price, higher, lower) -> tuple[float, list[float], list[float]]:
        amounts, rates = demand(price, higher, lower)
        return add_up(amounts), amounts, rates

    lo = hi = 1.0
    upper = lower = trial(hi, None, None)
    stretch = 2.0
    while upper[0] > budget:
        if hi == _FLOAT_MAX:
            raise SolverError("total demand stays above budget at any price",
                              bracket=(lo, hi))
        lo, lower = hi, upper
        hi = min(hi * stretch, _FLOAT_MAX)
        stretch *= stretch
        upper = trial(hi, None, lower[2])
    stretch = 2.0
    while lower[0] < budget:
        if lo == _PRICE_FLOOR:
            raise SolverError("total demand stays below budget at any price",
                              bracket=(lo, hi))
        hi, upper = lo, lower
        lo = max(lo / stretch, _PRICE_FLOOR)
        stretch *= stretch
        lower = trial(lo, upper[2], None)

    tol = 1e-9 * budget
    search = _Illinois(lower[0] - budget, upper[0] - budget)
    for _ in range(_MAX_PRICE_STEPS):
        if lower[0] - upper[0] <= tol:
            break
        span = math.log(hi / lo)
        price = lo * math.exp(search.fraction(span) * span)
        if not lo < price < hi:
            price = lo * math.exp(0.5 * span)
            if not lo < price < hi:
                break  # a demand jumps across one representable price
        middle = trial(price, upper[2], lower[2])
        value = middle[0] - budget
        search.moved(value)
        if value > 0.0:
            lo, lower = price, middle
        else:
            hi, upper = price, middle
    else:
        raise SolverError(f"price bracket ({lo}, {hi}) did not close", bracket=(lo, hi))
    gap = lower[0] - upper[0]
    fraction = (budget - upper[0]) / gap if gap > 0.0 else 0.0
    return [u + fraction * (v - u) for u, v in zip(upper[1], lower[1])]


def centralized_solve(
    users: Sequence[UserProfile], capacity: float
) -> OracleResult:
    """Solve the global allocation problem by clearing one dual price.

    The regime table sets who enters, the budget priced out above the
    offsets, and the caps. Scarce capacity: VIP users only, each capped
    at its total target and each targeted application at its target,
    utilities evaluated at the raw rates. Abundant capacity: all users,
    every target granted off the top, utilities evaluated above targets.

    Uncapped users compete application by application; a capped user
    competes as one amount, its demand held at its cap, and that amount
    is then cleared among its own applications.
    """
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    if not users:
        raise ContractError("at least one user is required")
    table = regime_table(users, capacity)
    # No row can take more than its cap, its user's cap or the budget.
    limits = [
        min(entry.cap, table.user_caps[entry.user_slot], table.budget) for entry in table.rows
    ]
    groups: list[list[int]] = [[] for _ in table.participants]
    for index, entry in enumerate(table.rows):
        groups[entry.user_slot].append(index)
    # Equal rows start every search from equal brackets, so each is searched
    # once per price; dlog_evaluate is bound per solve (tracers rebind it).
    distinct: dict[tuple, int] = {}
    kinds = [distinct.setdefault((entry.app.utility, entry.factor, entry.offset, limit),
                                 len(distinct)) for entry, limit in zip(table.rows, limits)]
    searches = [None if factor == 0.0 else (utility.dlog_evaluate, math.log(factor), offset, cap)
                for utility, factor, offset, cap in distinct]

    def rates_at(indices, price, higher, lower) -> list[float]:
        log_price = math.log(price)
        higher = higher or [0.0] * len(indices)
        lower = lower or [limits[i] for i in indices]
        found: dict[int, float] = {}
        for i, a, b in zip(indices, higher, lower):
            if kinds[i] not in found:
                found[kinds[i]] = _demand(searches[kinds[i]], log_price, a, b)
        return [found[kinds[i]] for i in indices]

    every_row = range(len(table.rows))

    def competing(price, higher, lower) -> tuple[list[float], list[float]]:
        rates = rates_at(every_row, price, higher, lower)
        amounts: list[float] = []
        for group, cap in zip(groups, table.user_caps):
            if cap == math.inf:
                amounts.extend(rates[i] for i in group)
            else:
                amounts.append(min(add_up(rates[i] for i in group), cap))
        return amounts, rates

    shares = iter(_clear(competing, table.budget))
    rates: list[float] = []
    for group, cap in zip(groups, table.user_caps):
        if cap == math.inf:
            rates.extend(next(shares) for _ in group)
            continue
        share = next(shares)
        if share > 0.0:
            # Its rows are its amounts.
            rates.extend(_clear(lambda *trial: (rates_at(group, *trial),) * 2, share))
        else:  # a VIP without targets has nothing to split under scarcity
            rates.extend(0.0 for _ in group)
    return _assemble(users, table, rates, "dual_bisection")


def _assemble(
    users: Sequence[UserProfile],
    table: RegimeTable,
    rates: Sequence[float],
    method: str,
) -> OracleResult:
    per_user: dict[str, list[float]] = {u.user_id: [] for u in table.participants}
    for entry, rate in zip(table.rows, rates):
        per_user[table.participants[entry.user_slot].user_id].append(rate + entry.offset)
    app_rates = {}
    user_rates = {}
    for user in users:
        if user.user_id in per_user:
            finals = per_user[user.user_id]
            app_rates[user.user_id] = tuple(finals)
            user_rates[user.user_id] = add_up(finals)
        else:
            app_rates[user.user_id] = tuple(0.0 for _ in user.apps)
            user_rates[user.user_id] = 0.0
    return OracleResult(
        user_rates=user_rates,
        app_rates=app_rates,
        objective=objective(table.rows, rates),
        method=method,
    )


def grid_search_solve(
    users: Sequence[UserProfile], capacity: float, step: float = 0.01
) -> OracleResult:
    """Exhaustive argmax over the step-grid of the feasible region.

    Guarded to at most 3 applications total; beyond that the grid is
    refused rather than silently truncated. Iteration is lexicographic
    in (user declaration order, application index) and ties go to the
    lexicographically smallest tuple. The last coordinate is not
    enumerated: the objective increases in it, so it takes the largest
    feasible value outright.
    """
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive, got {step!r}")
    if not users:
        raise ContractError("at least one user is required")
    table = regime_table(users, capacity)
    entries, user_caps = table.rows, table.user_caps
    n = len(entries)
    if n > 3:
        raise ContractError(f"grid search is guarded to at most 3 applications, got {n}")

    values = [0.0] * n
    user_used = [0.0] * len(table.participants)
    best: list[float] | None = None
    best_objective = NEG_INF

    def limit(j: int, remaining: float) -> float:
        entry = entries[j]
        slot = entry.user_slot
        return max(min(remaining, entry.cap, user_caps[slot] - user_used[slot]), 0.0)

    def recurse(j: int, remaining: float) -> None:
        nonlocal best, best_objective
        entry = entries[j]
        lim = limit(j, remaining)
        if j == n - 1:
            # Objective is nondecreasing in the last coordinate, largest
            # feasible value wins; zero-weight apps are flat, so they
            # take 0 (the lexicographically smallest choice).
            values[j] = lim if entry.factor > 0.0 else 0.0
            candidate = objective(entries, values)
            if best is None or candidate > best_objective:
                best = values.copy()
                best_objective = candidate
            return
        if entry.factor == 0.0:
            # All choices tie; keep the smallest.
            values[j] = 0.0
            recurse(j + 1, remaining)
            return
        count = int(math.floor(lim / step + 1e-9))
        for i in range(count + 1):
            q = min(i * step, lim)
            values[j] = q
            user_used[entry.user_slot] += q
            recurse(j + 1, remaining - q)
            user_used[entry.user_slot] -= q

    recurse(0, table.budget)
    assert best is not None
    return _assemble(users, table, best, "grid_search")
