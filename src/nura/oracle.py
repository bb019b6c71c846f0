"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve clears one global price. Each application's demand at
a price is the rate, at most its cap, its user's cap and the budget,
where its marginal value factor * (ln U)'(rate + offset) meets the
price, found by the oracle's own Illinois steps (regula falsi that
halves a stale end's value) on dlog_evaluate alone, in the rate for a
sigmoid and in ln(rate + offset) for a log curve. Each distinct row
(curve, factor, offset, limit) is searched once per price, with its
bound dlog_evaluate and ln factor taken once per solve. It never calls
the production demand solver or its Newton kernel, so a bug there
cannot certify itself; only the statement of the problem (the regime
table and the objective of the utility module) is shared with the
pipeline. One clearing routine finds the price where total demand,
added left to right, meets the budget, by secant steps on
ln(total / budget) in ln p guarded by bisection. Each search returns
its final bracket with the derivative values at its ends, and the
searches at the two ends of the price bracket start the next trial's,
whose rate they enclose, with no evaluation.
Where the bracket holds the plateau price p0 of one of its sigmoid rows,
the price where that row's demand crosses the curve's flat stretch, the
steps take s = asinh((p - p0) / w) for ln p: w is the width of that
crossing, beyond it s is ln|p - p0| less a constant, and the row's
demand is linear in s throughout. The routine tops every application
up from its demand at the upper price toward its demand at the lower
one, by the same fraction. It also splits a capped user's share among
its applications, starting at that upper price, once per distinct split.

grid_search_solve is the brute-force anti-hallucination oracle for tiny
instances: exhaustive enumeration over the step-grid of the feasible
simplex, ties broken toward the lexicographically smallest tuple. It
uses no derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import ContractError, DomainError, SolverError
from .utility import (NEG_INF, LogarithmicUtility, RegimeTable, SigmoidalUtility, UserProfile,
                      add_up, objective, regime_table)

_FLOAT_MAX = sys.float_info.max
_PRICE_FLOOR = math.ulp(0.0)  # the smallest positive float
_LOG_MAX_STRETCH = 512 * math.log(2.0)  # the widest step out, a factor of 2^512
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


def _log_slope(dlog, arg: float) -> float:
    """ln dlog(arg): +inf at arg <= 0, -inf where the slope underflows."""
    if arg <= 0.0:
        return math.inf
    slope = dlog(arg)
    return math.log(slope) if slope > 0.0 else -math.inf


def _demand(row: tuple | None, log_price: float, higher: tuple | None = None,
            lower: tuple | None = None) -> tuple[float, tuple | None]:
    """Rate in [0, limit] maximizing factor * ln U(rate + offset) - price * rate,
    and the search's final bracket.

    row is (bound dlog_evaluate, ln factor, offset, limit, whether the curve
    is logarithmic), or None for a zero factor, whose rate is 0 (bracket
    None). ln U is strictly concave, so this is where g = ln (ln U)'(rate +
    offset) falls to shift = ln price - ln factor. Illinois steps find it on
    g - shift, which decreases in the rate: regula falsi, halving the value
    at an end kept twice running (Dowell & Jarratt 1971). They interpolate
    in the rate for a sigmoid, and in ln(rate + offset) for a log curve,
    where g is nearly linear. From lo = offset = 0, where (ln U)' goes as
    1 / rate, they try e^{-shift}, or past hi a step of slope -1 in ln rate
    from hi; a sigmoid, whose (ln U)' goes so only below 1 / a, tries
    e^{-shift} only where bisection would take 10 steps to reach it. A step
    that lands within 0.5e-12 * hi of an end goes that far past it instead,
    so a root hugging an end is closed in one step (Brent 1973, ch. 4).

    The bracket is ((lo, g(lo)), (hi, g(hi))), ends that enclose the rate
    (equal where it is exact or an end of [0, limit]). higher and lower are
    the brackets returned at a higher and at a lower price, or None. Their
    ends, sign-tested on their g - shift at this price, start the search
    with no evaluation; 0 and limit stand in for a missing end.
    """
    if row is None:
        return 0.0, None
    dlog, log_factor, offset, limit, in_log = row
    shift = log_price - log_factor
    lo, g_lo, hi, g_hi = 0.0, None, limit, None
    for rate, g in (higher or ()) + (lower or ()):
        value = g - shift
        if value > 0.0:
            if rate >= lo:
                lo, g_lo = rate, g
        elif value < 0.0:
            if rate <= hi:
                hi, g_hi = rate, g
        else:
            return rate, ((rate, g), (rate, g))
    if g_lo is None:  # lo is 0
        if hi == 0.0 and g_hi is not None:
            return 0.0, ((0.0, g_hi), (0.0, g_hi))
        g_lo = _log_slope(dlog, offset)
        if g_lo - shift <= 0.0:
            return 0.0, ((0.0, g_lo), (0.0, g_lo))
    if g_hi is None:  # hi is limit
        if lo == limit:
            return limit, ((limit, g_lo), (limit, g_lo))
        g_hi = _log_slope(dlog, limit + offset)
        if g_hi - shift >= 0.0:
            return limit, ((limit, g_hi), (limit, g_hi))
    f_lo, f_hi = g_lo - shift, g_hi - shift
    kept, widths = 0, []  # kept: +1 if the last step kept hi, -1 if it kept lo
    for step in range(_MAX_DEMAND_STEPS):
        width = hi - lo
        if width <= 1e-12 * hi:
            break
        widths.append(width)
        gap = f_lo - f_hi
        if step >= _STALL_STEPS and width > 0.5 * widths[step - _STALL_STEPS]:
            rate = math.nan  # stalled: bisect, below
        elif 0.0 < gap < math.inf:  # so f_lo < inf and lo + offset > 0
            if in_log:
                x_lo = math.log(lo + offset)
                rate = math.exp(x_lo + f_lo / gap * (math.log(hi + offset) - x_lo)) - offset
            else:
                rate = lo + f_lo / gap * width
        elif lo + offset == 0.0:  # both are 0, where (ln U)' goes as 1 / rate
            if -shift >= math.log(hi):  # e^{-shift} >= hi
                rate = hi * math.exp(g_hi - shift)
            else:  # a sigmoid's (ln U)' goes so only below 1 / a
                rate = math.exp(-shift) if in_log or -shift < math.log(hi / 1024.0) else math.nan
        else:
            rate = math.nan
        nudge = 0.5e-12 * hi
        if rate - lo < nudge:
            rate = lo + nudge
        elif hi - rate < nudge:
            rate = hi - nudge
        if not lo < rate < hi:
            rate = lo + 0.5 * width
            if not lo < rate < hi:
                break  # adjacent floats
        arg = rate + offset  # _log_slope(dlog, arg), written out
        slope = dlog(arg) if arg > 0.0 else math.inf
        g = math.log(slope) if slope > 0.0 else -math.inf
        value = g - shift
        if value == 0.0:
            return rate, ((rate, g), (rate, g))
        if value > 0.0:
            if kept > 0:
                f_hi *= 0.5
            lo, g_lo, f_lo, kept = rate, g, value, 1
        else:
            if kept < 0:
                f_lo *= 0.5
            hi, g_hi, f_hi, kept = rate, g, value, -1
    else:
        raise SolverError(f"demand bracket ({lo}, {hi}) did not close", bracket=(lo, hi))
    return lo + 0.5 * (hi - lo), ((lo, g_lo), (hi, g_hi))


def _plateau(utility, factor: float) -> tuple[float, float] | None:
    """(p0, w) for a sigmoid row: where and over what width its demand
    crosses the curve's flat stretch; None for a log curve or factor 0.

    Between the low-rate wall and the inflection (ln U)' stays near
    a(1 + e^{-ab}), so the row demands little above p0 = factor * a(1 +
    e^{-ab}) and much below it. With x = e^{-a(r - b/2)} the equation
    factor * (ln U)'(r) = p reads x - 1 / x = (p - p0) / (p0 e^{-ab/2}) to
    first order, so the demand is b/2 - s / a with s = asinh((p - p0) / w),
    w = 2 p0 e^{-ab/2}: linear in s, and like -ln|p - p0| / a beyond w.
    w is at least 2 ulps of p0, the finest step a price can take there.
    """
    if not isinstance(utility, SigmoidalUtility) or factor == 0.0:
        return None
    p0 = factor * utility.a * (1.0 + math.exp(-utility.a * utility.b))
    return p0, max(2.0 * p0 * math.exp(-0.5 * utility.a * utility.b), 2.0 * math.ulp(p0))


class _Trial(NamedTuple):
    """A price tried by _clear; g = ln(total / budget), -inf at total 0."""

    price: float
    g: float
    total: float
    amounts: list[float]
    state: object  # demand's, passed back to it unread


def _clear(demand: Callable[..., tuple[list[float], object]], budget: float,
           plateaus: Sequence[tuple[float, float]] = (),
           start: tuple[float, object] = (1.0, None)) -> list[float]:
    """Amounts summing to budget at the price where demand meets it.

    demand(price, higher, lower) returns nonincreasing amounts and a state
    of the searches behind them, which this routine never reads: it passes
    the state returned at a higher and at a lower price back as higher and
    lower (None where there is no such trial), and demand starts from
    them. The search runs on g = ln(total / budget) in ln p, nearly linear
    where demand goes as 1 / p. From start, the first price and the state
    at it or at a higher price (None if unknown; p = 1 by default), it
    steps out by twice the secant's reach through the last two trials
    (slope -1 after one), which mirrors a linear g's root, but at least by
    a factor that starts at 2 and squares on each step and at most by
    2^512. Bracketed, it takes secant steps from the last two trials,
    bisecting in ln p where one leaves the bracket or the bracket has not
    halved in _STALL_STEPS steps. It stops when an end's total is within
    tol / 2 = 5e-10 * budget of the budget (an end of the float range
    counts), or on adjacent floats, where some demand jumps. The answer
    tops every amount at the upper end up toward the lower end's by the
    one fraction that spends the budget. Amounts do not rise with the
    price, so the exact ones lie between the ends' as well and differ from
    the stopping end's by at most tol / 2 in all; the top-up moves the
    amounts by at most tol / 2.

    plateaus lists the (p0, w) of the sigmoid rows (_plateau). Such a row's
    demand, linear in s = asinh((p - p0) / w), crosses its curve's whole
    flat stretch within a few w of p0, so g is close to a step in ln p
    there and secant steps in ln p creep up on it. Once the bracket holds
    a p0 and lies where s resolves prices at least as finely as ln p
    (lo >= p0 / 2 + w^2 / (2 p0)), the secant steps and the bisection run
    in s; bisecting in s a bracket around p0 tries prices next to p0. The
    plateau nearest where the secant step in ln p lands (the last trial
    where there is none) is taken, each at most once, as a new phase;
    ln p bisection stays for an s bisection that rounds onto an end. A
    phase's bracket spans under 2^9 in s and at least its width in
    ln p, so it too reaches adjacent floats within _MAX_PRICE_STEPS steps;
    there are at most len(plateaus) + 1 phases. The plateaus choose trial
    prices only: the bracket updates, both stop tests and the top-up do
    not read them, so a wrong plateau costs trials, not accuracy.
    """
    log_budget = math.log(budget)

    def trial(price: float, higher, lower) -> _Trial:
        amounts, state = demand(price, higher, lower)
        total = add_up(amounts)
        g = math.log(total) - log_budget if total > 0.0 else -math.inf
        return _Trial(price, g, total, amounts, state)

    tol = 1e-9 * budget
    previous = last = trial(start[0], start[1], None)
    up = last.total > budget
    stretch = 2.0
    while last.total > budget if up else last.total < budget:
        if last.price == (_FLOAT_MAX if up else _PRICE_FLOOR):
            if abs(last.total - budget) > 0.5 * tol:
                raise SolverError(f"total demand stays {'above' if up else 'below'} budget at "
                                  "any price", bracket=tuple(sorted((previous.price, last.price))))
            previous = last  # the end of the price range is within tol / 2
            break
        run, fall = 1.0, 1.0  # slope -1 after one trial
        if previous is not last:  # extrapolate the fall of |g|
            run = abs(math.log(last.price / previous.price))
            fall = abs(previous.g) - abs(last.g)
        # How far the root lies in ln p; g tells nothing where nothing is demanded.
        reach = abs(last.g) * run / fall if fall > 0.0 and last.g > -math.inf else 0.0
        factor = math.exp(min(max(math.log(stretch), 2.0 * reach), _LOG_MAX_STRETCH))
        if up:
            price = min(last.price * factor, _FLOAT_MAX)
        else:
            price = max(last.price / factor, _PRICE_FLOOR)
        stretch *= stretch
        previous, last = last, trial(price, *((None, last.state) if up else (last.state, None)))
    lower, upper = (previous, last) if up else (last, previous)

    widths: list[float] = []
    anchor = width = None  # the plateau (p0, w) the search steps around, if any

    def level(price: float) -> float:  # the search variable s around the plateau
        return math.asinh((price - anchor) / width)

    for _ in range(_MAX_PRICE_STEPS * (len(plateaus) + 1)):
        if lower.total - budget <= 0.5 * tol or budget - upper.total <= 0.5 * tol:
            break
        lo, hi = lower.price, upper.price
        rise = last.g - previous.g
        secant = -last.g * math.log(last.price / previous.price) / rise if rise else math.nan
        if anchor is None or not lo <= anchor <= hi:
            # A plateau in the bracket, which lies where ds >= d ln p, starts a
            # phase: the one nearest where the secant step in ln p lands.
            near = [(p0, w) for p0, w in plateaus
                    if lo <= p0 <= hi and p0 + w * (w / p0) <= 2.0 * lo]
            if near:
                shift = 0.0 if math.isnan(secant) else min(max(secant, -700.0), 700.0)
                aim = last.price * math.exp(shift)
                anchor, width = min(near, key=lambda plateau: abs(aim - plateau[0]))
                widths = []
        span = math.log(hi / lo) if anchor is None else level(hi) - level(lo)
        widths.append(span)
        stalled = len(widths) > _STALL_STEPS and span > 0.5 * widths[-1 - _STALL_STEPS]
        if anchor is None:
            price = last.price * math.exp(secant) if abs(secant) < span and not stalled else math.nan
            if not lo < price < hi:
                price = lo * math.exp(0.5 * span)
        else:
            here = level(last.price)
            shift = -last.g * (here - level(previous.price)) / rise if rise else math.nan
            price = (anchor + width * math.sinh(here + shift)
                     if abs(shift) < span and not stalled else math.nan)
            if not lo < price < hi:
                price = anchor + width * math.sinh(0.5 * (level(lo) + level(hi)))
                if not lo < price < hi:
                    price = lo * math.exp(0.5 * math.log(hi / lo))
        if not lo < price < hi:
            break  # a demand jumps across one representable price
        previous, last = last, trial(price, upper.state, lower.state)
        if last.total > budget:
            lower = last
        else:
            upper = last
    else:
        raise SolverError(f"price bracket ({lower.price}, {upper.price}) did not close",
                          bracket=(lower.price, upper.price))
    gap = lower.total - upper.total
    fraction = (budget - upper.total) / gap if gap > 0.0 else 0.0
    return [u + fraction * (v - u) for u, v in zip(upper.amounts, lower.amounts)]


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
    is then cleared among its own applications from the clearing's upper
    end (its lowest price where total demand fell short of the budget),
    with the searches there as its first trial's start; its split price is
    at most that one unless its amount there is its cap.
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
    searches = [None if factor == 0.0 else (utility.dlog_evaluate, math.log(factor), offset, cap,
                                            isinstance(utility, LogarithmicUtility))
                for utility, factor, offset, cap in distinct]
    plateau_of = [_plateau(utility, factor) for utility, factor, _, _ in distinct]

    def plateaus(indices) -> list[tuple[float, float]]:
        return sorted({plateau_of[kinds[i]] for i in indices} - {None})

    def rates_at(indices, price, higher, lower) -> tuple[list[float], dict[int, tuple]]:
        # The rows' rates and each kind's (rate, bracket), the state that
        # _clear passes back as higher / lower.
        log_price = math.log(price)
        found = {kind: _demand(searches[kind], log_price, higher and higher[kind][1],
                               lower and lower[kind][1])
                 for kind in dict.fromkeys(kinds[i] for i in indices)}
        return [found[kinds[i]][0] for i in indices], found

    every_row = range(len(table.rows))

    upper = (math.inf, None)  # the lowest price where total demand falls short, and its state

    def competing(price, higher, lower) -> tuple[list[float], dict[int, tuple]]:
        nonlocal upper
        rates, state = rates_at(every_row, price, higher, lower)
        amounts: list[float] = []
        for group, cap in zip(groups, table.user_caps):
            if cap == math.inf:
                amounts.extend(rates[i] for i in group)
            else:
                amounts.append(min(add_up(rates[i] for i in group), cap))
        if price < upper[0] and add_up(amounts) < table.budget:
            upper = price, state
        return amounts, state

    shares = iter(_clear(competing, table.budget, plateaus(every_row)))
    # Users equal in row kinds and share (positive floats are equal only
    # bit for bit) split alike, so each such split is cleared once.
    splits: dict[tuple, list[float]] = {}
    rates: list[float] = []
    for group, cap in zip(groups, table.user_caps):
        if cap == math.inf:
            rates.extend(next(shares) for _ in group)
            continue
        share = next(shares)
        if share > 0.0:
            key = (tuple(kinds[i] for i in group), share)
            if key not in splits:  # its rows are its amounts
                splits[key] = _clear(lambda *trial: rates_at(group, *trial), share,
                                     plateaus(group), upper if upper[1] else (1.0, None))
            rates.extend(splits[key])
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
