"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve clears one global price. Each application's demand at
a price is the rate where its marginal value factor * (ln U)'(rate +
offset) meets the price, found by the oracle's own bisection on the
utility module's derivatives, never by calling the production demand
solver, so a bug there cannot certify itself; only the statement of the
problem (the regime table of the utility module) is shared with the
pipeline. One clearing routine bisects the price until demand meets the
budget; where a demand jumps across one representable price it tops
every application up from its demand at the upper price toward its
demand at the lower one, by the same fraction. The same routine splits
a capped user's share among its applications.

grid_search_solve is the brute-force anti-hallucination oracle for tiny
instances: exhaustive enumeration over the step-grid of the feasible
simplex, ties broken toward the lexicographically smallest tuple. It
uses no derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ContractError, DomainError, SolverError
from .utility import NEG_INF, AppRow, RegimeTable, UserProfile, regime_table

_MAX_DOUBLINGS = 500
_MAX_BISECT = 200


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


def _entry_value(entry: AppRow, rate: float) -> float:
    """factor * ln U(rate + offset); -inf propagates."""
    if entry.factor == 0.0:
        return 0.0
    log_value = entry.app.utility.log_evaluate(rate + entry.offset)
    if log_value == NEG_INF:
        return NEG_INF
    return entry.factor * log_value


def _objective(entries: Sequence[AppRow], rates: Sequence[float]) -> float:
    total = 0.0
    for entry, rate in zip(entries, rates):
        value = _entry_value(entry, rate)
        if value == NEG_INF:
            return NEG_INF
        total += value
    return total


def _marginal(entry: AppRow, rate: float) -> float:
    if entry.factor == 0.0:
        return 0.0
    arg = rate + entry.offset
    if arg <= 0.0:
        return math.inf
    return entry.factor * entry.app.utility.dlog_evaluate(arg)


def _demand(entry: AppRow, price: float) -> float:
    """Rate in [0, cap] maximizing factor * ln U(rate + offset) - price * rate.

    ln U is strictly concave, so this is where the marginal value falls
    to the price, found by bisection.
    """
    if _marginal(entry, 0.0) <= price:
        return 0.0
    hi = entry.cap
    if hi is None:
        hi = entry.app.utility.rate_scale
        doublings = 0
        while _marginal(entry, hi) > price:
            hi *= 2.0
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise SolverError(
                    f"demand bracket did not close below rate {hi}", bracket=(0.0, hi)
                )
    elif _marginal(entry, hi) >= price:
        return hi
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # adjacent floats
        if _marginal(entry, mid) > price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _clear(demand: Callable[[float], list[float]], budget: float) -> list[float]:
    """Amounts summing to budget at the price where demand meets it.

    demand(price) lists nonincreasing amounts. The price is bracketed,
    then bisected until the demands at both ends agree with the budget
    or the bracket collapses onto adjacent floats, where some demand
    jumps. The answer starts from the feasible upper end and tops every
    amount up toward its demand at the lower end by the one fraction
    that spends the budget, so no amount leaves the range it spans.
    """
    lo = hi = 1.0
    upper = lower = demand(hi)
    steps = 0
    while sum(upper) > budget:
        lo, lower = hi, upper
        hi *= 2.0
        upper = demand(hi)
        steps += 1
        if steps > _MAX_DOUBLINGS:
            raise SolverError("total demand stays above budget at any price",
                              bracket=(lo, hi))
    steps = 0
    while sum(lower) < budget:
        hi, upper = lo, lower
        lo *= 0.5
        lower = demand(lo)
        steps += 1
        if steps > _MAX_DOUBLINGS:
            raise SolverError("total demand stays below budget at any price",
                              bracket=(lo, hi))

    tol = 1e-9 * max(budget, 1.0)
    for _ in range(_MAX_BISECT):
        if sum(lower) - sum(upper) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # a demand jumps across one representable price
        middle = demand(mid)
        if sum(middle) > budget:
            lo, lower = mid, middle
        else:
            hi, upper = mid, middle
    gap = sum(lower) - sum(upper)
    fraction = (budget - sum(upper)) / gap if gap > 0.0 else 0.0
    return [u + fraction * (v - u) for u, v in zip(upper, lower)]


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
    groups: list[list[AppRow]] = [[] for _ in table.participants]
    for entry in table.rows:
        groups[entry.user_slot].append(entry)

    def demands(group: list[AppRow], price: float) -> list[float]:
        return [_demand(entry, price) for entry in group]

    def competing(price: float) -> list[float]:
        amounts: list[float] = []
        for group, cap in zip(groups, table.user_caps):
            wanted = demands(group, price)
            if cap is None:
                amounts.extend(wanted)
            else:
                amounts.append(min(sum(wanted), cap))
        return amounts

    shares = iter(_clear(competing, table.budget))
    rates: list[float] = []
    for group, cap in zip(groups, table.user_caps):
        if cap is None:
            rates.extend(next(shares) for _ in group)
            continue
        share = next(shares)
        if share > 0.0:
            rates.extend(_clear(lambda price: demands(group, price), share))
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
            user_rates[user.user_id] = sum(finals)
        else:
            app_rates[user.user_id] = tuple(0.0 for _ in user.apps)
            user_rates[user.user_id] = 0.0
    objective = _objective(table.rows, rates)
    return OracleResult(
        user_rates=user_rates,
        app_rates=app_rates,
        objective=objective,
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
        lim = remaining
        if entry.cap is not None:
            lim = min(lim, entry.cap)
        user_cap = user_caps[entry.user_slot]
        if user_cap is not None:
            lim = min(lim, user_cap - user_used[entry.user_slot])
        return max(lim, 0.0)

    def recurse(j: int, remaining: float) -> None:
        nonlocal best, best_objective
        entry = entries[j]
        lim = limit(j, remaining)
        if j == n - 1:
            # Objective is nondecreasing in the last coordinate, largest
            # feasible value wins; zero-weight apps are flat, so they
            # take 0 (the lexicographically smallest choice).
            values[j] = lim if entry.factor > 0.0 else 0.0
            candidate = _objective(entries, values)
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
