"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve clears one global price by its own search. It shares
with the pipeline what the utility module states: the regime table, with
its input checks, row limits and curve grouping (the curves the bidding
rounds read), the objective, each sigmoid row's plateau, and each
application's closed-form demand (Application.demand_at). A price trial
reads each curve of its rows once, at p / beta, and each row's rate as
that less its offset, clipped to [0, limit]. It shares nothing of how the
pipeline clears: it never calls clear_price, the bidding rounds,
app_rate_at_price or dlog_slope. A row's exit price, where it leaves its
limit, factor * dlog_evaluate(limit + offset), is read once per solve,
when a trial first finds the row there. One clearing routine (_clear)
clears the price, and under scarce capacity the share of each user it
caps among that user's rows. A result's objective is computed on first
read, not in the solve: the tests and scripts/pin_check.py read it, the
CLI, the benchmark and scripts/oracle_diff.py do not. The independent
check of its answers, as of the pipeline's, is tests/referee.py: the KKT
conditions in mpmath, from the utility's definition.

grid_search_solve is the brute-force anti-hallucination oracle for tiny
instances: exhaustive enumeration over the step-grid of the feasible
simplex, ties broken toward the lexicographically smallest tuple. It
uses no derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .errors import ContractError, DomainError, SolverError
from .utility import (NEG_INF, AppRow, RegimeTable, UserProfile, add_up, objective,
                      regime_table, sigmoid_plateau)

_FLOAT_MAX = sys.float_info.max
_PRICE_FLOOR = math.ulp(0.0)  # the smallest positive float
_LN2 = math.log(2.0)
_LOG_MAX_STRETCH = 512 * _LN2  # the widest step out, a factor of 2^512
# A step that finds its bracket not halved within the last _STALL_STEPS
# steps bisects it, so at least one step in every 5 is a bisection. A
# bracket in ln p lies in the float range, so it is under 2^11 wide and
# reaches adjacent floats (2^-53 apart) within 64 bisections; the bound
# leaves a few halvings to rounding.
_STALL_STEPS = 4
_MAX_PRICE_STEPS = 5 * 70
_MAX_GRID_POINTS = 1_000_000  # objective calls; their number grows as (R / step)^2


@dataclass(frozen=True)
class OracleResult:
    """Solution of the global problem.

    user_rates and app_rates cover every user (zeros for users excluded
    under scarce capacity); app_rates are final per-application rates,
    targets included when capacity is abundant. objective, the weighted
    log-domain value over participating users, is not a field: it is
    computed on first read, then cached, from rows and rates (the rows
    and their rates above the offsets), two fields that == and repr
    ignore and that a dataclasses.replace copy keeps. The tests and
    scripts/pin_check.py read it; the CLI, the benchmark and
    scripts/oracle_diff.py read the rates only.
    """

    user_rates: dict[str, float]
    app_rates: dict[str, tuple[float, ...]]
    method: str
    rows: Sequence[AppRow] = field(default=(), compare=False, repr=False)
    rates: Sequence[float] = field(default=(), compare=False, repr=False)

    @cached_property
    def objective(self) -> float:
        return objective(self.rows, self.rates)


class _Trial(NamedTuple):
    """A price tried by _clear; g = ln(total / budget), -inf at total 0;
    exits, each price above it where a row at its limit leaves it, from the
    highest, with the amount the rows leaving there or later hold."""

    price: float
    g: float
    total: float
    amounts: list[float]
    exits: list[tuple[float, float]]


def _clear(demand: Callable[[float], tuple[list[float], list[tuple[float, float]]]],
           budget: float,
           plateaus: Sequence[tuple[float, float]] = (),
           start: float | None = None) -> tuple[list[float], float, _Trial, _Trial]:
    """Amounts summing to budget at the price where demand meets it, the
    fraction that tops them up and the upper and lower end trials.

    demand(price) returns nonincreasing amounts and the exits: for each row
    at its limit, the price where it leaves it and the amount it holds until
    then. The search runs on g = ln(total / budget) in ln p, nearly linear
    where demand goes as 1 / p. From the first price, start (a warm start)
    or else p = 1, it steps out by twice the secant's reach through the last
    two trials (slope -1 after one), which mirrors a linear g's root, but at
    least by a floor and at most by 2^512. The floor starts at a factor of
    2, or of e^{min(4|g|, ln 2)} at a warm start, which often lies next to
    the root, and squares on each step. Bracketed, it takes the secant
    through the last two trials, or, where those straddle the root, inverse
    quadratic interpolation through the last three (Brent 1973, ch. 4) where
    that lands in the bracket. Once the last three trials lie on one side of
    the root and the last one cut |g| by less than half, it takes regula
    falsi on the bracket's ends instead, with the value at the other end
    halved for each trial past the second on that side (Illinois; Dowell &
    Jarratt 1971); after a jump (below), regula falsi as it stands. It
    bisects where a step leaves the bracket or the bracket has not halved in
    _STALL_STEPS steps; a step that rounds onto an end goes to the float
    next to it, and a bisection that does bisects in ln p. It stops when an
    end's total is within tol / 2 = 5e-10 * budget of the budget (an end of
    the float range counts), or on adjacent floats, where some demand jumps.
    The answer tops every amount at the upper end up toward the lower end's
    by the one fraction that spends the budget. Amounts do not rise with the
    price, so the exact ones lie between the ends' as well and differ from
    the stopping end's by at most tol / 2 in all; the top-up moves the
    amounts by at most tol / 2.

    Rows at their limit keep g flat, where neither a step out nor a secant
    has reach. The rows leaving last hold their amounts up to their exit
    prices, so where the rows at the lower end hold budget - tol until
    some exit above it, the total stays above budget - tol up to the
    highest such exit, and any step out, or a step landing below that
    exit, jumps to it instead; a step out goes on from a jump as from a
    warm start. Each jump lands above the last trial, where the row
    exiting there holds nothing more, so there are at most as many jumps
    as rows, and the step bound below counts the other steps only.

    plateaus lists the (p0, w) of the sigmoid rows (utility.sigmoid_plateau).
    Such a row's demand, linear in s = asinh((p - p0) / w), crosses its
    curve's whole flat stretch within a few w of p0, so g is close to a step
    in ln p there, and beyond w it goes as ln|p - p0|, where steps in ln p creep.
    A plateau where s resolves prices at least as finely as ln p across
    the bracket (lo / 2 <= p0 and p0 + w^2 / p0 <= 2 lo) starts a phase
    where the step in ln p lands nearer p0 than last is, or where p0 lies
    in the bracket, give or take 4 w, and the bracket has stalled or a jump
    has just closed it (an exit jump can land just past p0): the one
    nearest the bracket, then nearest that landing. In a phase the steps
    interpolate the total, linear in s, by secant or regula falsi, and
    bisect, in s. A phase ends for good once s is coarser than ln p, or
    once its plateau lies outside a bracket that has stalled or that holds
    another plateau; each plateau starts one phase at most, so there are
    at most len(plateaus) + 1 phases. A bracket spans under 2^11 in ln p,
    and in s under that plus 2 ln(p0 / w) <= 72, and adjacent floats in it
    lie at least 2^-53 apart in either, so each phase reaches adjacent
    floats within _MAX_PRICE_STEPS steps. The plateaus and the exits
    choose trial prices only: the bracket updates, both stop tests and the
    top-up do not read them, so a wrong one costs trials, not accuracy.
    """
    log_budget = math.log(budget)
    tol = 1e-9 * budget
    new = tuple.__new__  # _Trial's own __new__ runs as a Python frame

    def trial(price: float) -> _Trial:
        amounts, exits = demand(price)
        total = add_up(amounts)
        g = math.log(total) - log_budget if total > 0.0 else -math.inf
        held, outs = 0.0, []
        for out, amount in sorted(exits, reverse=True):  # the rows leaving last first
            held += amount
            if out > price:
                outs.append((out, held))
        return new(_Trial, (price, g, total, amounts, outs))

    def exit_below(at: _Trial, hi: float) -> float:
        """The highest exit below hi up to which at's rows at their limit
        hold budget - tol, inf if none."""
        for out, held in at.exits:
            if out < hi and held >= budget - tol:
                return out
        return math.inf

    def floor_at(at: _Trial) -> float:  # the first step's floor in ln p next to a root
        return max(min(4.0 * abs(at.g), _LN2), 1e-15)

    previous = last = trial(1.0 if start is None else start)
    up = last.total > budget
    floor = _LN2 if start is None else floor_at(last)
    jumped = False  # whether last was an exit jump
    while last.total > budget if up else last.total < budget:
        if last.price == (_FLOAT_MAX if up else _PRICE_FLOOR):
            if abs(last.total - budget) > 0.5 * tol:
                raise SolverError(f"total demand stays {'above' if up else 'below'} budget at "
                                  "any price", bracket=tuple(sorted((previous.price, last.price))))
            previous = last  # the end of the price range is within tol / 2
            break
        leave = exit_below(last, math.inf) if up else math.inf
        if leave < math.inf:  # an exit jump, from which the steps start afresh
            previous, last = last, trial(leave)
            floor, jumped = floor_at(last), True
            continue
        run, fall = 1.0, 1.0  # slope -1 after one trial or a jump
        if previous is not last and not jumped:  # extrapolate the fall of |g|
            run = abs(math.log(last.price / previous.price))
            fall = abs(previous.g) - abs(last.g)
        # How far the root lies in ln p; g tells nothing where nothing is demanded.
        reach = abs(last.g) * run / fall if fall > 0.0 and last.g > -math.inf else 0.0
        factor = math.exp(min(max(floor, 2.0 * reach), _LOG_MAX_STRETCH))
        if up:
            price = min(last.price * factor, _FLOAT_MAX)
        else:
            price = max(last.price / factor, _PRICE_FLOOR)
        floor *= 2.0
        previous, last = last, trial(price)
        jumped = False
    lower, upper = (previous, last) if up else (last, previous)

    widths: list[float] = []
    anchor = width = None  # the plateau (p0, w) the search steps around, if any
    left: set[tuple[float, float]] = set()  # the plateaus it has stepped around
    run = 1  # the trials in a row on last's side of the root since the last jump
    older = None

    def level(price: float) -> float:  # the search variable s around the plateau
        return math.asinh((price - anchor) / width)

    def kept(p0: float, w: float, lo: float) -> bool:  # s as fine as ln p in the bracket
        return 0.5 * lo <= p0 and p0 + w * (w / p0) <= 2.0 * lo

    def inside(p0: float, w: float, lo: float, hi: float) -> bool:  # give or take 4 w
        return lo - 4.0 * w <= p0 <= hi + 4.0 * w

    def landing(lo: float, hi: float) -> tuple[float, float]:
        """The bracket's span in t and where the step lands in t, from lo:
        t is ln p, where the steps interpolate g, nearly linear in it, or s,
        where they interpolate the total, linear in it."""
        if anchor is None:
            span = math.log(hi / lo)
            f_lo, f_hi, f_a, f_b = lower.g, upper.g, previous.g, last.g
            x_a = 0.0 if previous is lower else span if previous is upper else math.log(
                previous.price / lo)
            x_b = 0.0 if last is lower else span
        else:
            s_lo = level(lo)
            span, x_a, x_b = level(hi) - s_lo, level(previous.price) - s_lo, level(last.price) - s_lo
            f_lo, f_hi = lower.total / budget - 1.0, upper.total / budget - 1.0
            f_a, f_b = previous.total / budget - 1.0, last.total / budget - 1.0
        if jumped or run > 2 and abs(f_b) > 0.5 * abs(f_a):  # regula falsi on the ends
            if not jumped:  # Illinois: halve the value at the end kept since
                if last is lower:
                    f_hi *= 0.5 ** (run - 2)
                else:
                    f_lo *= 0.5 ** (run - 2)
            return span, f_lo / (f_lo - f_hi) * span
        if f_a == f_b:
            return span, math.nan
        x = x_a + f_a / (f_a - f_b) * (x_b - x_a)  # the secant through the last two
        if older is not None and anchor is None and (f_a > 0.0) != (f_b > 0.0):
            f_c = older.g  # inverse quadratic interpolation through the last three
            if f_b != f_c and f_c != f_a:
                x_c = math.log(older.price / lo)
                bent = (x_a * f_b / (f_b - f_a) * f_c / (f_c - f_a)
                        + x_b * f_a / (f_a - f_b) * f_c / (f_c - f_b)
                        + x_c * f_a / (f_a - f_c) * f_b / (f_b - f_c))
                if 0.0 < bent < span:
                    return span, bent
        return span, x

    steps = 0
    while lower.total - budget > 0.5 * tol and budget - upper.total > 0.5 * tol:
        if steps == _MAX_PRICE_STEPS * (len(plateaus) + 1):
            raise SolverError(f"price bracket ({lower.price}, {upper.price}) did not close",
                              bracket=(lower.price, upper.price))
        lo, hi = lower.price, upper.price
        span, x = landing(lo, hi)
        stalled = len(widths) >= _STALL_STEPS and span > 0.5 * widths[-_STALL_STEPS]
        # A phase ends for good once s is coarser than ln p, or where its plateau
        # lies outside a bracket that has stalled or that holds another one.
        if anchor is not None and not (kept(anchor, width, lo) and (
                inside(anchor, width, lo, hi) or not stalled
                and not any(inside(p0, w, lo, hi) for p0, w in plateaus))):
            anchor = None
            span, x = landing(lo, hi)
        near = [(p0, w) for p0, w in plateaus
                if kept(p0, w, lo) and (p0, w) not in left] if anchor is None else ()
        if near:  # those nearer where the step in ln p lands than last is, or in a
            # bracket that has stalled or that a jump has just closed
            aim = lo * math.exp(min(max(x, -700.0), 700.0)) if x == x else last.price
            reach = abs(math.log(aim / last.price))
            near = [(p0, w) for p0, w in near if abs(math.log(aim / p0)) < reach
                    or (stalled or jumped) and inside(p0, w, lo, hi)]
            if near:  # the nearest the bracket, then the nearest the landing, starts a phase
                anchor, width = min(near, key=lambda plateau: (
                    max(lo - plateau[0], plateau[0] - hi, 0.0) / plateau[0], abs(aim - plateau[0])))
                left.add((anchor, width))
                widths = []
                span, x = landing(lo, hi)
        widths.append(span)
        bisect = stalled or not 0.0 < x < span  # stalled, or out of the bracket
        if bisect:
            x = 0.5 * span
        price = lo * math.exp(x) if anchor is None else anchor + width * math.sinh(level(lo) + x)
        if not lo < price < hi:  # rounded onto an end
            if bisect:
                price = lo * math.exp(0.5 * math.log(hi / lo))
            else:  # a step finer than the float spacing there
                price = math.nextafter(lo, hi) if price <= lo else math.nextafter(hi, lo)
        leave = exit_below(lower, hi) if lower.exits else math.inf
        jumped = price < leave < hi
        if jumped:
            price = leave
        elif lo < price < hi:
            steps += 1
        else:
            break  # a demand jumps across one representable price
        side = last.total > budget
        older, previous, last = previous, last, trial(price)
        run = run + 1 if (last.total > budget) == side and not jumped else 1
        if last.total > budget:
            lower = last
        else:
            upper = last
    gap = lower.total - upper.total
    fraction = (budget - upper.total) / gap if gap > 0.0 else 0.0
    return ([u + fraction * (v - u) for u, v in zip(upper.amounts, lower.amounts)],
            fraction, upper, lower)


def centralized_solve(users: Sequence[UserProfile], capacity: float) -> OracleResult:
    """Solve the global allocation problem by clearing one dual price.

    The regime table sets who enters, the budget priced out above the
    offsets, and the caps. Scarce capacity: VIP users only, each capped
    at its total target and each targeted application at its target,
    utilities evaluated at the raw rates. Abundant capacity: all users,
    every target granted off the top, utilities evaluated above targets.

    Under scarce capacity each user competes as one amount, its demand
    held at its cap, a row holding its limit toward the clearing's exits
    only up to the cap, the rows leaving last first. A user whose rows at
    the clearing's lower end add up to no more than its cap (a zero
    multiplier) keeps them, topped up by the clearing's fraction; every
    other user's share is cleared among its own rows, from the clearing's
    upper end. The rows' rates at both ends are read again for this.
    """
    table = regime_table(users, capacity)
    # Rows equal in curve, offset and limit read equal rates and exit prices.
    distinct: dict[tuple, int] = {}
    kinds = [distinct.setdefault((curve, entry.offset, limit), len(distinct))
             for curve, entry, limit in zip(table.curve_of, table.rows, table.limits)]
    plateau_of = [sigmoid_plateau(app.utility, beta * app.weight) for app, beta in table.curves]
    exit_of: list[float | None] = [None] * len(distinct)  # read when a trial first needs it

    def reader(indices) -> tuple[Callable[[float], tuple[list[float], list]], list]:
        # A price trial on these rows, each its own amount, with the exit of each at
        # its limit (0 at weight 0 or limit 0, kept in exit_of); and their plateaus.
        own = sorted({table.curve_of[i] for i in indices} - {None})
        curves = [(table.curves[c][0].demand_at, table.curves[c][1]) for c in own]
        zero, place = len(own), {c: at for at, c in enumerate(own)}  # a weight-0 row reads 0
        entries = [(place.get(table.curve_of[i], zero), table.rows[i].offset, table.limits[i],
                    kinds[i], table.rows[i]) for i in indices]

        def read(price) -> tuple[list[float], list[tuple[float, float]]]:
            values = []
            for demand_at, beta in curves:
                scaled = price / beta
                if 0.0 < scaled <= _FLOAT_MAX:
                    values.append(demand_at(scaled))
                elif scaled:  # inf
                    values.append(0.0)
                else:
                    raise SolverError(f"price {price!r} / beta {beta!r} underflows to 0",
                                      bracket=(0.0, price))
            values.append(0.0)
            rates, exits = [], []
            for at, offset, limit, kind, entry in entries:
                r = values[at] - offset
                if 0.0 > r:
                    r = 0.0
                if limit < r:
                    r = limit
                rates.append(r)
                if r == limit:
                    out = exit_of[kind]
                    if out is None:
                        out = exit_of[kind] = min(entry.factor * entry.app.utility.dlog_evaluate(
                            limit + offset), _FLOAT_MAX) if at < zero and limit > 0.0 else 0.0
                    exits.append((out, r))
            return rates, exits
        return read, sorted({plateau_of[c] for c in own} - {None})

    read, plateaus = reader(range(len(table.rows)))
    if min(table.user_caps) == math.inf:  # no user is capped
        return _assemble(users, table, _clear(read, table.budget, plateaus)[0], "dual_bisection")
    groups: list[list[int]] = [[] for _ in table.participants]
    for index, entry in enumerate(table.rows):
        groups[entry.user_slot].append(index)

    def competing(price) -> tuple[list[float], list[tuple[float, float]]]:
        rates, exits = read(price)
        amounts = [min(add_up(rates[i] for i in group), cap)
                   for group, cap in zip(groups, table.user_caps)]
        if exits:  # the rows leaving last hold up to the user's cap
            exits = []
            for group, cap in zip(groups, table.user_caps):
                for leave, rate in sorted(((exit_of[kinds[i]], rates[i]) for i in group
                                           if rates[i] == table.limits[i]), reverse=True):
                    exits.append((leave, min(rate, cap)))
                    cap -= min(rate, cap)
        return amounts, exits

    shares, fraction, upper, lower = _clear(competing, table.budget, plateaus)
    at_upper, at_lower = (read(end.price)[0] for end in (upper, lower))
    # Users equal in row kinds and share (positive floats are equal only
    # bit for bit) split alike, so each such split is cleared once.
    splits: dict[tuple, list[float]] = {}
    rates: list[float] = []
    for group, share, cap in zip(groups, shares, table.user_caps):
        pairs = [(at_upper[i], at_lower[i]) for i in group]
        # Below its cap at the lower end, a user is below it across the bracket;
        # a zero share past it takes fraction 0 and rows all 0 at the upper end.
        if share == 0.0 or add_up(v for _, v in pairs) <= cap:
            rates.extend(u + fraction * (v - u) for u, v in pairs)
            continue
        row_kinds = tuple(kinds[i] for i in group)
        if (row_kinds, share) not in splits:
            own, own_plateaus = reader(group)
            splits[row_kinds, share] = _clear(own, share, own_plateaus, upper.price)[0]
        rates.extend(splits[row_kinds, share])
    return _assemble(users, table, rates, "dual_bisection")


def _assemble(users: Sequence[UserProfile], table: RegimeTable, rates: Sequence[float],
              method: str) -> OracleResult:
    finals: list[list[float]] = [[] for _ in table.participants]
    for entry, rate in zip(table.rows, rates):
        finals[entry.user_slot].append(rate + entry.offset)
    per_user = {u.user_id: tuple(own) for u, own in zip(table.participants, finals)}
    app_rates = {u.user_id: per_user.get(u.user_id) or (0.0,) * len(u.apps) for u in users}
    return OracleResult({uid: add_up(own) for uid, own in app_rates.items()}, app_rates, method,
                        table.rows, rates)


def grid_search_solve(
    users: Sequence[UserProfile], capacity: float, step: float = 0.01
) -> OracleResult:
    """Exhaustive argmax over the step-grid of the feasible region.

    Guarded to at most 3 applications total and to a grid of at most
    _MAX_GRID_POINTS points, the objective calls of the enumeration,
    counted before any is made; beyond that the grid is refused rather
    than silently truncated. The count walks the values of the rows
    enumerated before the last one and adds that row's number of values,
    which it takes from its limit; it stops once past the bound, so a
    refusal costs at most _MAX_GRID_POINTS + 1 steps at any size and
    reports the count reached. Iteration is
    lexicographic in (user declaration order, application index) and
    ties go to the lexicographically smallest tuple. The last coordinate
    is not enumerated: the objective increases in it, so it takes the
    largest feasible value outright.
    """
    table = regime_table(users, capacity)
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive, got {step!r}")
    entries, limits, user_caps = table.rows, table.limits, table.user_caps
    n = len(entries)
    if n > 3:
        raise ContractError(f"grid search is guarded to at most 3 applications, got {n}")
    values = [0.0] * n
    user_used = [0.0] * len(table.participants)

    def span(j: int, remaining: float) -> tuple[float, int]:
        """Row j's limit, within what is left of the budget and its user's
        cap, and how many grid values up to it an enumerated row takes: one,
        0.0, at weight 0, where all choices tie and the smallest is kept."""
        slot = entries[j].user_slot
        lim = max(min(remaining, limits[j], user_caps[slot] - user_used[slot]), 0.0)
        return lim, int(math.floor(lim / step + 1e-9)) + 1 if entries[j].factor > 0.0 else 1

    def points(j: int, remaining: float) -> int:
        """The objective calls recurse makes from row j on, walked as it
        walks them (keep the two in step), up to the first count past the
        bound: each value adds at least one point, so that ends the walk."""
        if j == n - 1:
            return 1
        lim, count = span(j, remaining)
        if j == n - 2:
            return count
        total, slot = 0, entries[j].user_slot
        for i in range(count):
            if total > _MAX_GRID_POINTS:
                break
            q = min(i * step, lim)
            user_used[slot] += q
            total += points(j + 1, remaining - q)
            user_used[slot] -= q
        return total

    grid = points(0, table.budget)
    if grid > _MAX_GRID_POINTS:
        raise ContractError(f"grid search is guarded to {_MAX_GRID_POINTS} points, got at least "
                            f"{grid} at step {step!r}")
    best: list[float] | None = None
    best_objective = NEG_INF

    def recurse(j: int, remaining: float) -> None:
        nonlocal best, best_objective
        lim, count = span(j, remaining)
        if j == n - 1:
            # Objective is nondecreasing in the last coordinate, largest
            # feasible value wins; zero-weight apps are flat, so they
            # take 0 (the lexicographically smallest choice).
            values[j] = lim if entries[j].factor > 0.0 else 0.0
            candidate = objective(entries, values)
            if best is None or candidate > best_objective:
                best = values.copy()
                best_objective = candidate
            return
        slot = entries[j].user_slot
        for i in range(count):
            q = min(i * step, lim)
            values[j] = q
            user_used[slot] += q
            recurse(j + 1, remaining - q)
            user_used[slot] -= q

    recurse(0, table.budget)
    assert best is not None
    return _assemble(users, table, best, "grid_search")
