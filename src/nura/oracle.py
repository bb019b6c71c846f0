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
takes (p / beta, ln(p / beta)) once per distinct beta of its rows, reads
each of their curves once at its beta's pair, and each row's rate as
that less its offset, clipped to [0, limit], in one pass over the rows;
the whole table's trial reads the table's curve grouping as it stands.
It shares nothing of how the pipeline clears: it never calls
clear_price, the bidding rounds, app_rate_at_price or dlog_slope. A
row's exit price, where it leaves its limit, factor * dlog_evaluate(limit
+ offset), is read when a trial first finds the row there, once per solve
for all rows equal in curve, offset and limit. One clearing routine
(_clear) clears the price, and under scarce capacity the share of each
user it caps among that user's rows; a result counts the trials of all
of them. A result's objective is computed on first read, not in the
solve: the tests and scripts/pin_check.py read it, the CLI, the
benchmark and scripts/oracle_diff.py do not. The independent
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
    scripts/oracle_diff.py read the rates only. trials, which == and
    repr ignore too, counts the price trials of all the solve's
    clearings, the capped users' splits included (0 for the grid).
    """

    user_rates: dict[str, float]
    app_rates: dict[str, tuple[float, ...]]
    method: str
    rows: Sequence[AppRow] = field(default=(), compare=False, repr=False)
    rates: Sequence[float] = field(default=(), compare=False, repr=False)
    trials: int = field(default=0, compare=False, repr=False)

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
           start: float | None = None) -> tuple[list[float], float, _Trial, _Trial, int]:
    """Amounts summing to budget at the price where demand meets it, the
    fraction that tops them up, the upper and lower end trials and the
    number of trials, the calls of demand.

    demand(price) returns nonincreasing amounts and the exits: for each row
    at its limit, the price where it leaves it and the amount it holds until
    then. A trial adds the amounts up left to right, as add_up does, in one
    pass, and orders the exits only where there are some. The search runs
    on g = ln(total / budget) in ln p, nearly linear where demand goes as
    1 / p. From the first price, start (a warm start) or else p = 1, it
    steps out by twice the secant's reach through the last two trials
    (slope -1 after one), which mirrors a linear g's root, but at least by
    a floor and at most by 2^512. The floor starts at a factor of
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
    near_tol = 0.5 * tol  # an end this near the budget stops the search
    new = tuple.__new__  # _Trial's own __new__ runs as a Python frame
    trials = 0

    def trial(price: float) -> _Trial:
        nonlocal trials
        trials += 1
        amounts, exits = demand(price)
        total = 0.0
        for amount in amounts:  # left to right, as add_up adds
            total += amount
        g = math.log(total) - log_budget if total > 0.0 else -math.inf
        outs = []
        if exits:
            held = 0.0
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
            if abs(last.total - budget) > near_tol:
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
    ahead = list(plateaus)  # those it has not stepped around
    run = 1  # the trials in a row on last's side of the root since the last jump
    older = None

    def level(price: float) -> float:  # the search variable s around the plateau
        return math.asinh((price - anchor) / width)

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
    while lower.total - budget > near_tol and budget - upper.total > near_tol:
        if steps == _MAX_PRICE_STEPS * (len(plateaus) + 1):
            raise SolverError(f"price bracket ({lower.price}, {upper.price}) did not close",
                              bracket=(lower.price, upper.price))
        lo, hi = lower.price, upper.price
        half, twice = 0.5 * lo, 2.0 * lo  # s is as fine as ln p in the bracket where
        # half <= p0 and p0 + w^2 / p0 <= twice
        span, x = landing(lo, hi)
        stalled = len(widths) >= _STALL_STEPS and span > 0.5 * widths[-_STALL_STEPS]
        # A phase ends for good once s is coarser than ln p, or where its plateau
        # lies outside a bracket that has stalled or that holds another one.
        if anchor is not None and not (
                half <= anchor and anchor + width * (width / anchor) <= twice and (
                    inside(anchor, width, lo, hi) or not stalled
                    and not any(inside(p0, w, lo, hi) for p0, w in plateaus))):
            anchor = None
            span, x = landing(lo, hi)
        near = [(p0, w) for p0, w in ahead
                if half <= p0 and p0 + w * (w / p0) <= twice] if anchor is None and ahead else ()
        if near:  # those nearer where the step in ln p lands than last is, or in a
            # bracket that has stalled or that a jump has just closed
            aim = lo * math.exp(min(max(x, -700.0), 700.0)) if x == x else last.price
            reach = abs(math.log(aim / last.price))
            near = [(p0, w) for p0, w in near if abs(math.log(aim / p0)) < reach
                    or (stalled or jumped) and inside(p0, w, lo, hi)]
            if near:  # the nearest the bracket, then the nearest the landing, starts a phase
                anchor, width = min(near, key=lambda plateau: (
                    max(lo - plateau[0], plateau[0] - hi, 0.0) / plateau[0], abs(aim - plateau[0])))
                ahead.remove((anchor, width))
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
            fraction, upper, lower, trials)


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
    upper end. The rows' rates at both ends are those the clearing's end
    trials read, kept by trial price: no end is read twice.

    A trial reads its rows' curves beta by beta into a list by table
    curve, so every row reads its value at its curve_of as it stands; the
    whole table's trial reads all the table's curves, a split's only its
    user's, at the user's one beta. Exit
    prices are kept per row and read by (curve, offset, limit), when a
    trial first finds a row of that kind at its limit; a split's key, its
    rows' kinds and its share, is built only for a user past its cap.
    """
    table = regime_table(users, capacity)
    rows, limits, curve_of, caps = table.rows, table.limits, table.curve_of, table.user_caps
    plateau_of = [sigmoid_plateau(app.utility, beta * app.weight) for app, beta in table.curves]
    exit_of: list[float | None] = [None] * len(rows)  # each row's, once a trial needs it
    exit_at: dict[tuple, float] = {}  # by (curve, offset, limit), which fix it

    def exit_price(i: int) -> float:
        """Row i's exit price, where it leaves its limit: read once for all
        rows equal in curve, offset and limit; 0 at weight 0 or limit 0."""
        row, curve, limit = rows[i], curve_of[i], limits[i]
        key = (curve, row.offset, limit)
        out = exit_at.get(key)
        if out is None:
            out = exit_at[key] = min(row.factor * row.app.utility.dlog_evaluate(
                limit + row.offset), _FLOAT_MAX) if curve is not None and limit > 0.0 else 0.0
        exit_of[i] = out
        return out

    zero = len(table.curves)  # the place of the 0 that a row of weight 0 reads

    def reader(own, indices) -> tuple[Callable[[float], tuple[list[float], list]], list]:
        # A price trial on the table's rows at indices, each its own amount, with
        # the exit of each at its limit; and their plateaus. own lists the table's
        # curves they read, in table order. The trial reads them grouped by beta,
        # each beta first where own first has it, taking p / beta and its ln once
        # per group, into a list by table curve, which holds 0 where none is read.
        by_beta: dict[float, list[tuple[int, Callable[[float, float], float]]]] = {}
        for c in own:
            app, beta = table.curves[c]
            by_beta.setdefault(beta, []).append((c, app.demand_at))
        groups = list(by_beta.items())
        entries = [(zero if curve_of[i] is None else curve_of[i], rows[i].offset, limits[i], i)
                   for i in indices]

        def read(price) -> tuple[list[float], list[tuple[float, float]]]:
            values = [0.0] * (zero + 1)  # a curve whose p / beta is inf reads 0 too
            for beta, demands in groups:
                scaled = price / beta
                if 0.0 < scaled <= _FLOAT_MAX:
                    ln_scaled = math.log(scaled)
                    for c, demand_at in demands:
                        values[c] = demand_at(scaled, ln_scaled)
                elif not scaled:
                    raise SolverError(f"price {price!r} / beta {beta!r} underflows to 0",
                                      bracket=(0.0, price))
            rates, exits = [], []
            for at, offset, limit, i in entries:
                r = values[at] - offset
                if 0.0 > r:
                    r = 0.0
                if limit < r:
                    r = limit
                rates.append(r)
                if r == limit:
                    out = exit_of[i]
                    exits.append((exit_price(i) if out is None else out, r))
            return rates, exits
        return read, sorted({plateau_of[c] for c in own} - {None})

    read, plateaus = reader(range(zero), range(len(rows)))
    if min(caps) == math.inf:  # no user is capped
        rates, _, _, _, trials = _clear(read, table.budget, plateaus)
        return _assemble(users, table, rates, "dual_bisection", trials)
    groups, start = [], 0  # each user's rows, (start, stop): the table lays them out user by user
    for user in table.participants:
        groups.append((start, start + len(user.apps)))
        start += len(user.apps)

    kept: dict[float, list[float]] = {}  # each trial's row rates, by its price

    def competing(price) -> tuple[list[float], list[tuple[float, float]]]:
        rates, exits = read(price)
        kept[price] = rates
        amounts = [min(add_up(rates[start:stop]), cap) for (start, stop), cap in zip(groups, caps)]
        if exits:  # the rows leaving last hold up to the user's cap
            exits = []
            for (start, stop), cap in zip(groups, caps):
                for leave, rate in sorted(((exit_of[i], rates[i]) for i in range(start, stop)
                                           if rates[i] == limits[i]), reverse=True):
                    exits.append((leave, min(rate, cap)))
                    cap -= min(rate, cap)
        return amounts, exits

    shares, fraction, upper, lower, trials = _clear(competing, table.budget, plateaus)
    at_upper, at_lower = kept[upper.price], kept[lower.price]
    # Users equal in row kinds, (curve, offset, limit), and share (positive floats
    # are equal only bit for bit) split alike, so each such split is cleared once.
    splits: dict[tuple, list[float]] = {}
    rates: list[float] = []
    for (start, stop), share, cap in zip(groups, shares, caps):
        # Below its cap at the lower end, a user is below it across the bracket;
        # a zero share past it takes fraction 0 and rows all 0 at the upper end.
        if share == 0.0 or add_up(at_lower[start:stop]) <= cap:
            rates.extend(u + fraction * (v - u)
                         for u, v in zip(at_upper[start:stop], at_lower[start:stop]))
            continue
        group = range(start, stop)
        kinds = tuple((curve_of[i], rows[i].offset, limits[i]) for i in group)
        if (kinds, share) not in splits:
            own_read, own_plateaus = reader(sorted({curve_of[i] for i in group} - {None}), group)
            split, _, _, _, count = _clear(own_read, share, own_plateaus, upper.price)
            splits[kinds, share] = split
            trials += count
        rates.extend(splits[kinds, share])
    return _assemble(users, table, rates, "dual_bisection", trials)


def _assemble(users: Sequence[UserProfile], table: RegimeTable, rates: Sequence[float],
              method: str, trials: int = 0) -> OracleResult:
    rows, participants = table.rows, table.participants
    finals = [rate + row.offset for row, rate in zip(rows, rates)]
    app_rates, user_rates, start, slot = {}, {}, 0, 0
    for user in users:  # the participants among them, in order, hold the rows user by user
        if slot < len(participants) and participants[slot] is user:
            stop = start + len(user.apps)
            own = tuple(finals[start:stop])
            start, slot = stop, slot + 1
        else:
            own = (0.0,) * len(user.apps)
        total = 0.0
        for rate in own:  # left to right, as add_up adds
            total += rate
        app_rates[user.user_id], user_rates[user.user_id] = own, total
    return OracleResult(user_rates, app_rates, method, rows, rates, trials)


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
