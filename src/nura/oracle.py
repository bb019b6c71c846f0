"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve runs a dual bisection on one global price. Its demand
curves are re-derived from the raw log-utilities by golden-section
search, never by calling the production demand solver, so a bug there
cannot certify itself; only the statement of the problem (the regime
table of the utility module) is shared with the pipeline. Because
golden section resolves an argmax only to the square root of float
precision, rates on the sigmoid's flat marginal-value stretch come out
noisy; a pairwise-exchange refinement (bisection on rate transfers
between application pairs, using only the utility module's
derivatives) then sharpens the assembled point into the exact
constrained optimum.

grid_search_solve is the brute-force anti-hallucination oracle for tiny
instances: exhaustive enumeration over the step-grid of the feasible
simplex, ties broken toward the lexicographically smallest tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError, DomainError, SolverError
from .utility import NEG_INF, AppRow, RegimeTable, UserProfile, regime_table

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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


def _golden_max(objective, lo: float, hi: float, tol: float) -> float:
    """Argmax of a unimodal function on [lo, hi] by golden-section search."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    iters = 0
    while hi - lo > tol and iters < _MAX_BISECT:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        iters += 1
    return 0.5 * (lo + hi)


def _entry_demand(entry: AppRow, price: float) -> float:
    """Rate maximizing factor * ln U(rate + offset) - price * rate.

    Golden-section on the 1-D objective; the bracket is grown by value
    comparisons until the peak is enclosed.
    """
    if entry.factor == 0.0:
        return 0.0

    def phi(rate: float) -> float:
        return _entry_value(entry, rate) - price * rate

    if entry.cap is not None:
        hi = entry.cap
    else:
        hi = entry.app.utility.rate_scale
        value = phi(hi)
        doublings = 0
        while True:
            value_next = phi(2.0 * hi)
            if value_next <= value:
                hi *= 2.0  # peak is inside [0, 2*hi]
                break
            hi *= 2.0
            value = value_next
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise SolverError(
                    f"demand bracket did not close below rate {hi}", bracket=(0.0, hi)
                )
    if hi <= 0.0:
        return 0.0
    return _golden_max(phi, 0.0, hi, 1e-10 * max(hi, 1.0))


def _user_demands(table: RegimeTable, price: float) -> tuple[list[float], list[float]]:
    """Per-row demands at a price, and per-participant totals with caps applied.

    A capped user takes min(sum of its demands, cap): when the cap binds
    the user's tightened internal price moves demand exactly onto it.
    """
    demands = [_entry_demand(entry, price) for entry in table.rows]
    totals = [0.0] * len(table.participants)
    for entry, demand in zip(table.rows, demands):
        totals[entry.user_slot] += demand
    totals = [t if c is None else min(t, c) for t, c in zip(totals, table.user_caps)]
    return demands, totals


def _room_into(
    entries: Sequence[AppRow],
    rates: Sequence[float],
    user_totals: Sequence[float],
    user_caps: Sequence[float | None],
    index: int,
) -> float:
    entry = entries[index]
    room = math.inf
    if entry.cap is not None:
        room = entry.cap - rates[index]
    user_cap = user_caps[entry.user_slot]
    if user_cap is not None:
        room = min(room, user_cap - user_totals[entry.user_slot])
    return max(room, 0.0)


def _exchange_polish(
    entries: Sequence[AppRow],
    rates: list[float],
    num_users: int,
    user_caps: Sequence[float | None],
    sweeps: int = 12,
) -> None:
    """Sharpen a feasible point into the constrained optimum in place.

    Cyclic pairwise rate transfers: for each application pair, bisect on
    the transfer amount until weighted marginal log-utilities agree (or
    a cap blocks the move). The objective is separable and strictly
    concave, so these exchanges converge to the joint optimum over the
    fixed-total simplex.
    """
    n = len(entries)
    user_totals = [0.0] * num_users
    for entry, rate in zip(entries, rates):
        user_totals[entry.user_slot] += rate

    def apply(j: int, m: int, t: float) -> None:
        rates[j] += t
        rates[m] -= t
        if rates[m] < 0.0:
            rates[m] = 0.0
        user_totals[entries[j].user_slot] += t
        user_totals[entries[m].user_slot] -= t

    for _ in range(sweeps):
        largest = 0.0
        for j in range(n):
            for m in range(j + 1, n):
                mj = _marginal(entries[j], rates[j])
                mm = _marginal(entries[m], rates[m])
                if mj == mm:  # includes the both-infinite stand-off
                    continue
                if mj > mm:
                    into, outof = j, m
                else:
                    into, outof = m, j
                t_max = min(
                    rates[outof],
                    _room_into(entries, rates, user_totals, user_caps, into),
                )
                if t_max <= 0.0:
                    continue

                def gap(t: float) -> float:
                    return _marginal(entries[into], rates[into] + t) - _marginal(
                        entries[outof], rates[outof] - t
                    )

                if gap(t_max) >= 0.0:
                    t_star = t_max
                else:
                    t_lo, t_hi = 0.0, t_max
                    for _ in range(_MAX_BISECT):
                        mid = 0.5 * (t_lo + t_hi)
                        if not (t_lo < mid < t_hi):
                            break
                        if gap(mid) > 0.0:
                            t_lo = mid
                        else:
                            t_hi = mid
                        if t_hi - t_lo <= 1e-12 * max(1.0, t_max):
                            break
                    t_star = 0.5 * (t_lo + t_hi)
                if t_star > 0.0:
                    apply(into, outof, t_star)
                    largest = max(largest, t_star)
        if largest <= 1e-10:
            break


def centralized_solve(
    users: Sequence[UserProfile], capacity: float
) -> OracleResult:
    """Solve the global allocation problem by bisection on one dual price.

    The regime table sets who enters, the budget priced out above the
    offsets, and the caps. Scarce capacity: VIP users only, each capped
    at its total target and each targeted application at its target,
    utilities evaluated at the raw rates. Abundant capacity: all users,
    every target granted off the top, utilities evaluated above targets.
    """
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    if not users:
        raise ContractError("at least one user is required")
    table = regime_table(users, capacity)
    budget, user_caps, entries = table.budget, table.user_caps, table.rows

    # Bracket the dual price: demand rises as the price falls.
    lo = hi = 1.0
    _, totals = _user_demands(table, hi)
    steps = 0
    while sum(totals) > budget:
        hi *= 2.0
        _, totals = _user_demands(table, hi)
        steps += 1
        if steps > _MAX_DOUBLINGS:
            raise SolverError("total demand stays above budget at any price",
                              bracket=(lo, hi))
    steps = 0
    _, totals = _user_demands(table, lo)
    while sum(totals) < budget:
        lo *= 0.5
        _, totals = _user_demands(table, lo)
        steps += 1
        if steps > _MAX_DOUBLINGS:
            raise SolverError("total demand stays below budget at any price",
                              bracket=(lo, hi))

    tol = 1e-9 * max(budget, 1.0)
    price = None
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # price resolution exhausted (a demand jumps across one float)
        _, totals = _user_demands(table, mid)
        total = sum(totals)
        if abs(total - budget) <= tol:
            price = mid
            break
        if total > budget:
            lo = mid
        else:
            hi = mid
    if price is None:
        price = hi  # feasible side: total demand <= budget there

    # Assemble a feasible point at the chosen price, push the unspent
    # budget onto the hungriest applications, then polish.
    demands, _ = _user_demands(table, price)
    rates = list(demands)
    # Shrink over-cap users proportionally; the polish restores the
    # optimal internal split under the cap.
    sums = [0.0] * len(table.participants)
    for entry, rate in zip(entries, rates):
        sums[entry.user_slot] += rate
    for j, entry in enumerate(entries):
        cap = user_caps[entry.user_slot]
        if cap is None:
            continue
        total_user = sums[entry.user_slot]
        if total_user > cap > 0.0:
            rates[j] *= cap / total_user
        elif total_user > cap:
            rates[j] = 0.0

    user_totals = [0.0] * len(table.participants)
    for entry, rate in zip(entries, rates):
        user_totals[entry.user_slot] += rate
    residual = budget - sum(rates)
    if residual > 0.0:
        order = sorted(
            range(len(entries)),
            key=lambda j: _marginal(entries[j], rates[j]),
            reverse=True,
        )
        for j in order:
            if residual <= 0.0:
                break
            room = _room_into(entries, rates, user_totals, user_caps, j)
            give = min(residual, room)
            if give > 0.0:
                rates[j] += give
                user_totals[entries[j].user_slot] += give
                residual -= give

    _exchange_polish(entries, rates, len(table.participants), user_caps)

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
