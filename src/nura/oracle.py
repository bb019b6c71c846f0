"""Independent centralized solvers certifying the distributed pipeline.

Two ground-truth solvers for the same global problem the bidding
protocol and the per-user splits solve together: maximize the weighted
sum of log-utilities over all applications subject to the capacity
budget (and, under scarce capacity, per-user and per-application caps).

centralized_solve clears one global price. Each application's demand at
a price is the rate, at most its cap, its user's cap and the budget,
where its marginal value factor * (ln U)'(rate + offset) meets the
price, found by the oracle's own Anderson-Bjorck steps (regula falsi
that scales down a stale end's value; _demand) on dlog_evaluate alone,
in ln(rate + offset) for every row, reading only the row and the price;
a sigmoid row's search first probes, once, where the asymptotes of its
curve's (ln U)' on either side of the flat stretch meet the price, a
point read off the curve's a and b that chooses where to evaluate only.
It never calls the production demand solver or its Newton kernel, so a
bug there cannot certify itself; it shares with the pipeline only the
statement of the problem in the utility module: the regime table, with
its input checks and row limits, the objective, and each sigmoid row's
plateau, which chooses _clear's trial prices only. One clearing routine
(_clear) finds the price where total demand, added left to right, meets
the budget, and tops every application up from its demand at the upper
price toward its demand at the lower one by the same fraction. Under
scarce capacity it also splits the share of each user the clearing caps
among its applications, from the clearing's upper end, once per
distinct split; every other user keeps its rows as cleared.

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
from .utility import (NEG_INF, CaseFlag, LogarithmicUtility, RegimeTable, UserProfile, add_up,
                      objective, regime_table, sigmoid_plateau)

_FLOAT_MAX = sys.float_info.max
_PRICE_FLOOR = math.ulp(0.0)  # the smallest positive float
_LN2 = math.log(2.0)
_LOG_MAX_STRETCH = 512 * _LN2  # the widest step out, a factor of 2^512
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)
# A step that finds its bracket not halved within the last _STALL_STEPS
# steps bisects it, so at least one step in every 5 is a bisection. A
# bracket in x = ln(rate + offset) or in ln p lies in the float range, so
# it is under 2^11 wide and reaches adjacent floats (2^-53 apart) within
# 64 bisections. A row search bisects in the rate while lo + offset is 0
# or where the midpoint in x rounds onto an end, and a rate bracket, under
# 2^1024 wide, reaches adjacent floats (2^-1074 apart) within 2098 of
# those. The bounds leave a few halvings to rounding.
_STALL_STEPS = 4
_MAX_DEMAND_STEPS = 5 * 2170
_MAX_PRICE_STEPS = 5 * 70
# A sigmoid row's bracket wider than this times hi is probed first at its
# curve's asymptotic root.
_PROBE_WIDTH = 1e-6


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


def _curve(utility) -> tuple[float, float, float] | None:
    """A row's curve as _demand reads it: None for a log curve, which it
    does not probe; (a, b, ln(a(1 + e^{-ab}))) for a sigmoid."""
    if isinstance(utility, LogarithmicUtility):
        return None
    return utility.a, utility.b, math.log(utility.a * (1.0 + math.exp(-utility.a * utility.b)))


def _asymptotic_root(curve: tuple[float, float, float], shift: float) -> float:
    """Where (ln U)' of the sigmoid curve = (a, b, ln(a(1 + e^{-ab}))) meets
    e^{shift} by the asymptotes on either side of its flat stretch, in
    rate + offset; nan at u = 0.

    (ln U)' = a(1 + e^{-ab}) / D, D = e^{a(r-b)} + 1 - e^{-ab} - e^{-ar},
    so the root has D = e^u, u = ln(a(1 + e^{-ab})) - shift. Past the flat
    stretch (u > 0) D goes as e^{a(r-b)} + 1, below it (u < 0) as 1 - e^{-ar}.
    ln(1 - e^u) is taken as log1mexp (Maechler 2012): below -ln 2 the log
    of 1 - e^u, a float next to 1, would keep only its rounding.
    """
    a, b, log_scale = curve
    u = log_scale - shift
    if u > 700.0:  # expm1(u) overflows; ln expm1(u) = u to double precision
        return b + u / a
    if u > 0.0:
        return b + math.log(math.expm1(u)) / a
    if u < -_LN2:
        return -math.log1p(-math.exp(u)) / a
    if u < 0.0:
        return -math.log(-math.expm1(u)) / a
    return math.nan


def _demand(row: tuple | None, log_price: float, higher: tuple | None = None,
            lower: tuple | None = None, ends: list | None = None) -> tuple[float, tuple | None]:
    """Rate in [0, limit] maximizing factor * ln U(rate + offset) - price * rate,
    and the search's final bracket.

    row is (bound dlog_evaluate, ln factor, offset, limit, curve), curve
    None for a log curve and (a, b, ln(a(1 + e^{-ab}))) for a sigmoid
    (_curve), or None for a zero factor, whose rate is 0 (bracket None).
    ln U is strictly concave, so this is where g = ln (ln U)'(rate +
    offset) falls to shift = ln price - ln factor.

    A sigmoid row whose bracket is wider than _PROBE_WIDTH * hi is probed
    once, at its curve's asymptotic root less the offset (_asymptotic_root;
    none at u = 0, nor where it falls outside the bracket). The probe
    chooses a point only: it updates the bracket by the sign of its
    g - shift, as a step does.

    Anderson-Bjorck steps find it on g - shift, which decreases in the
    rate: regula falsi that scales the value at an end kept twice running
    by m = 1 - f_new / f_old of the moving end, or by 1/2 where m <= 0
    (Anderson & Bjorck 1973), so that they do not creep toward the root
    from one side, as halving it (Illinois; Dowell & Jarratt 1971) did on a
    sigmoid's convex flat stretch. Every row takes the same rules, whatever
    its curve and price: the search reads no plateau. Each step and each
    bisection works in x = ln(rate + offset), where a log curve's g is
    nearly linear and an end whose g is infinite (a rate of 0 at offset 0,
    or a slope that underflows) is left in few bisections across decades;
    a bisection whose midpoint in x rounds onto an end, or whose lo +
    offset is 0, takes the midpoint in the rate. From lo = offset = 0,
    where (ln U)' goes as 1 / rate (a sigmoid's below 1 / a), the step is
    e^{-shift}, or past hi a step of slope -1 in ln rate from hi. A step
    that lands within 0.5e-12 * hi of an end goes that far past it
    instead, so a root hugging an end is closed in one step (Brent 1973,
    ch. 4). The rate returned is the secant root of the final bracket, in
    the rate, through the unweighted g - shift at its ends, or its midpoint
    where an end's g is infinite.

    The bracket is ((lo, g(lo)), (hi, g(hi))), ends that enclose the rate
    (equal where it is exact or an end of [0, limit]). higher and lower are
    the brackets returned at a higher and at a lower price, or None. Their
    ends, sign-tested on their g - shift at this price, start the search
    with no evaluation; 0 and limit stand in for a missing end, their g
    read from and kept in ends, the row's [g(0), g(limit)], where given.
    """
    if row is None:
        return 0.0, None
    dlog, log_factor, offset, limit, curve = row
    ends = ends or [None, None]
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
        g_lo = ends[0] = _log_slope(dlog, offset) if ends[0] is None else ends[0]
        if g_lo - shift <= 0.0:
            return 0.0, ((0.0, g_lo), (0.0, g_lo))
    if g_hi is None:  # hi is limit
        if lo == limit:
            return limit, ((limit, g_lo), (limit, g_lo))
        g_hi = ends[1] = _log_slope(dlog, limit + offset) if ends[1] is None else ends[1]
        if g_hi - shift >= 0.0:
            return limit, ((limit, g_hi), (limit, g_hi))
    f_lo, f_hi = g_lo - shift, g_hi - shift
    if curve is not None and hi - lo > _PROBE_WIDTH * hi:  # probe the asymptotic root
        rate = _asymptotic_root(curve, shift) - offset
        if lo < rate < hi:  # also not nan
            g = _log_slope(dlog, rate + offset)
            value = g - shift
            if value == 0.0:
                return rate, ((rate, g), (rate, g))
            if value > 0.0:
                lo, g_lo, f_lo = rate, g, value
            else:
                hi, g_hi, f_hi = rate, g, value
    kept, widths = 0, []  # kept: +1 if the last step kept hi, -1 if it kept lo
    for step in range(_MAX_DEMAND_STEPS):
        width = hi - lo
        if width <= 1e-12 * hi:
            break
        widths.append(width)
        gap = f_lo - f_hi
        x_lo = math.log(lo + offset) if lo + offset > 0.0 else -math.inf
        x_hi = math.log(hi + offset)
        if step >= _STALL_STEPS and width > 0.5 * widths[step - _STALL_STEPS]:
            rate = math.nan  # stalled: bisect, below
        elif 0.0 < gap < math.inf:  # so f_lo < inf and lo + offset > 0
            rate = math.exp(x_lo + f_lo / gap * (x_hi - x_lo)) - offset
        elif lo + offset == 0.0:  # both are 0, where (ln U)' goes as 1 / rate
            rate = hi * math.exp(g_hi - shift) if -shift >= x_hi else math.exp(-shift)
        else:
            rate = math.nan
        nudge = 0.5e-12 * hi
        if rate - lo < nudge:
            rate = lo + nudge
        elif hi - rate < nudge:
            rate = hi - nudge
        if not lo < rate < hi:  # bisect in ln(rate + offset), else in the rate
            rate = math.exp(0.5 * (x_lo + x_hi)) - offset
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
                weight = 1.0 - value / f_lo
                f_hi *= weight if weight > 0.0 else 0.5
            lo, g_lo, f_lo, kept = rate, g, value, 1
        else:
            if kept < 0:
                weight = 1.0 - value / f_hi
                f_lo *= weight if weight > 0.0 else 0.5
            hi, g_hi, f_hi, kept = rate, g, value, -1
    else:
        raise SolverError(f"demand bracket ({lo}, {hi}) did not close", bracket=(lo, hi))
    f_lo, f_hi = g_lo - shift, g_hi - shift  # unweighted
    part = f_lo / (f_lo - f_hi) if f_lo < math.inf and f_hi > -math.inf else 0.5
    return lo + part * (hi - lo), ((lo, g_lo), (hi, g_hi))


class _Trial(NamedTuple):
    """A price tried by _clear; g = ln(total / budget), -inf at total 0;
    exits, each price above it where a row at its limit leaves it, from the
    highest, with the amount the rows leaving there or later hold."""

    price: float
    g: float
    total: float
    amounts: list[float]
    state: object  # demand's, passed back to it unread
    exits: list[tuple[float, float]]


def _clear(demand: Callable[..., tuple[list[float], object, list[tuple[float, float]]]],
           budget: float,
           plateaus: Sequence[tuple[float, float]] = (),
           start: tuple[float, object] = (1.0, None)) -> tuple[list[float], float, _Trial, _Trial]:
    """Amounts summing to budget at the price where demand meets it, the
    fraction that tops them up and the upper and lower end trials.

    demand(price, higher, lower) returns nonincreasing amounts, a state of
    the searches behind them, and the exits: for each row at its limit
    past this price, the price where it leaves it and the amount it holds
    until then. This routine never reads the state: it passes the state
    returned at a higher and at a lower price back as higher and lower
    (None where there is no such trial), and demand starts from them.
    The search runs on g = ln(total / budget) in ln p, nearly linear
    where demand goes as 1 / p. From start, the first price and the state
    at it or at a higher price (None if unknown; p = 1 by default), it
    steps out by twice the secant's reach through the last two trials
    (slope -1 after one), which mirrors a linear g's root, but at least by
    a floor and at most by 2^512. The floor starts at a factor of 2, or
    of e^{min(4|g|, ln 2)} at a warm start (one with a state), which often
    lies next to the root, and squares on each step. Bracketed, it takes
    the secant through the last two trials, or, where those straddle the
    root, inverse quadratic interpolation through the last three (Brent
    1973, ch. 4) where that lands in the bracket. Once the last three
    trials lie on one side of the root and the last one cut |g| by less
    than half, it takes regula falsi on the bracket's ends instead, with
    the value at the other end halved for each trial past the second on
    that side (Illinois; Dowell & Jarratt 1971); after a jump (below),
    regula falsi as it stands. It bisects where a step leaves the bracket
    or the bracket has not halved in _STALL_STEPS steps; a step that
    rounds onto an end goes to the float next to it, and a bisection that
    does bisects in ln p. It stops when an
    end's total is within tol / 2 = 5e-10 * budget of the budget (an end
    of the float range counts), or on adjacent floats, where some demand
    jumps. The answer tops every amount at the upper end up toward the
    lower end's by the one fraction that spends the budget. Amounts do
    not rise with the price, so the exact ones lie between the ends' as
    well and differ from the stopping end's by at most tol / 2 in all; the
    top-up moves the amounts by at most tol / 2.

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

    def trial(price: float, higher, lower) -> _Trial:
        amounts, state, exits = demand(price, higher, lower)
        total = add_up(amounts)
        g = math.log(total) - log_budget if total > 0.0 else -math.inf
        held, outs = 0.0, []
        for out, amount in sorted(exits, reverse=True):  # the rows leaving last first
            held += amount
            if out > price:
                outs.append((out, held))
        return _Trial(price, g, total, amounts, state, outs)

    def exit_below(at: _Trial, hi: float) -> float:
        """The highest exit below hi up to which at's rows at their limit
        hold budget - tol, inf if none."""
        for out, held in at.exits:
            if out < hi and held >= budget - tol:
                return out
        return math.inf

    def floor_at(at: _Trial) -> float:  # the first step's floor in ln p next to a root
        return max(min(4.0 * abs(at.g), _LN2), 1e-15)

    previous = last = trial(start[0], start[1], None)
    up = last.total > budget
    floor = _LN2 if start[1] is None else floor_at(last)
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
            previous, last = last, trial(leave, None, last.state)
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
        previous, last = last, trial(price, *((None, last.state) if up else (last.state, None)))
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
        older, previous, last = previous, last, trial(price, upper.state, lower.state)
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
    other user's share is cleared among its own rows from the clearing's
    upper end, its price and its searches starting the first trial.
    """
    table = regime_table(users, capacity)
    groups: list[list[int]] = [[] for _ in table.participants]
    for index, entry in enumerate(table.rows):
        groups[entry.user_slot].append(index)
    # Equal rows start every search from equal brackets, so each is searched
    # once per price; dlog_evaluate is bound, and g at 0 and at the limit
    # is evaluated, once per solve (tracers rebind dlog_evaluate).
    distinct: dict[tuple, int] = {}
    kinds = [distinct.setdefault((entry.app.utility, entry.factor, entry.offset, limit),
                                 len(distinct)) for entry, limit in zip(table.rows, table.limits)]
    searches = [None if factor == 0.0 else (utility.dlog_evaluate, math.log(factor), offset, cap,
                                            _curve(utility))
                for utility, factor, offset, cap in distinct]
    ends = [[None, None] for _ in distinct]
    plateau_of = [sigmoid_plateau(utility, factor) for utility, factor, _, _ in distinct]

    def plateaus(indices) -> list[tuple[float, float]]:
        return sorted({plateau_of[kinds[i]] for i in indices} - {None})

    def layout(indices) -> tuple[list[int], list[int]]:
        # A clearing's rows' kinds, and the distinct ones in first-seen order.
        row_kinds = [kinds[i] for i in indices]
        return row_kinds, list(dict.fromkeys(row_kinds))

    def rates_at(rows, price, higher, lower) -> tuple[list[float], dict, dict[int, float]]:
        # The rates of the rows laid out by layout; each kind's (rate, bracket),
        # the state that _clear passes back as higher / lower; and for each row
        # at its limit past this price (by its place in the rows) the price
        # where it leaves it, e^{g(limit) + ln factor}, from its bracket.
        row_kinds, order = rows
        log_price = math.log(price)
        found, leaving = {}, {}
        for kind in order:
            row = searches[kind]
            rate, bracket = found[kind] = _demand(
                row, log_price, higher and higher[kind][1], lower and lower[kind][1], ends[kind])
            if bracket and rate == row[3] and bracket[1][1] + row[1] > log_price:
                leaving[kind] = math.exp(min(bracket[1][1] + row[1], _LOG_FLOAT_MAX))
        rates = [found[kind][0] for kind in row_kinds]
        if leaving:
            leaving = {j: leaving[kind] for j, kind in enumerate(row_kinds) if kind in leaving}
        return rates, found, leaving

    def splitting(group):  # each row is its own amount
        rows = layout(group)

        def split(price, higher, lower) -> tuple[list[float], dict, list[tuple[float, float]]]:
            rates, state, leaving = rates_at(rows, price, higher, lower)
            return rates, state, [(leave, rates[j]) for j, leave in leaving.items()]
        return split

    every_row = range(len(table.rows))
    if table.case is not CaseFlag.TARGETS_EXCEED_CAPACITY:  # no user is capped
        return _assemble(users, table, _clear(splitting(every_row), table.budget,
                                              plateaus(every_row))[0], "dual_bisection")
    everything = layout(every_row)

    def competing(price, higher, lower) -> tuple[list[float], dict, list[tuple[float, float]]]:
        rates, state, leaving = rates_at(everything, price, higher, lower)
        amounts = [min(add_up(rates[i] for i in group), cap)
                   for group, cap in zip(groups, table.user_caps)]
        exits: list[tuple[float, float]] = []
        if leaving:  # the rows leaving last hold up to the user's cap
            for group, cap in zip(groups, table.user_caps):
                for leave, rate in sorted(((leaving[i], rates[i]) for i in group if i in leaving),
                                          reverse=True):
                    exits.append((leave, min(rate, cap)))
                    cap -= min(rate, cap)
        return amounts, state, exits

    shares, fraction, upper, lower = _clear(competing, table.budget, plateaus(every_row))
    # Users equal in row kinds and share (positive floats are equal only
    # bit for bit) split alike, so each such split is cleared once.
    splits: dict[tuple, list[float]] = {}
    rates: list[float] = []
    for group, share, cap in zip(groups, shares, table.user_caps):
        row_kinds = tuple(kinds[i] for i in group)
        pairs = [(upper.state[kind][0], lower.state[kind][0]) for kind in row_kinds]
        # Below its cap at the lower end, a user is below it across the bracket;
        # a zero share past it takes fraction 0 and rows all 0 at the upper end.
        if share == 0.0 or add_up(v for _, v in pairs) <= cap:
            rates.extend(u + fraction * (v - u) for u, v in pairs)
            continue
        if (row_kinds, share) not in splits:
            splits[row_kinds, share] = _clear(splitting(group), share, plateaus(group),
                                              (upper.price, upper.state))[0]
        rates.extend(splits[row_kinds, share])
    return _assemble(users, table, rates, "dual_bisection")


def _assemble(users: Sequence[UserProfile], table: RegimeTable, rates: Sequence[float],
              method: str) -> OracleResult:
    per_user: dict[str, list[float]] = {u.user_id: [] for u in table.participants}
    for entry, rate in zip(table.rows, rates):
        per_user[table.participants[entry.user_slot].user_id].append(rate + entry.offset)
    app_rates = {u.user_id: tuple(per_user.get(u.user_id, [0.0] * len(u.apps))) for u in users}
    return OracleResult({uid: add_up(finals) for uid, finals in app_rates.items()}, app_rates,
                        objective(table.rows, rates), method)


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
    table = regime_table(users, capacity)
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be positive, got {step!r}")
    entries, limits, user_caps = table.rows, table.limits, table.user_caps
    n = len(entries)
    if n > 3:
        raise ContractError(f"grid search is guarded to at most 3 applications, got {n}")

    values = [0.0] * n
    user_used = [0.0] * len(table.participants)
    best: list[float] | None = None
    best_objective = NEG_INF

    def recurse(j: int, remaining: float) -> None:
        nonlocal best, best_objective
        entry = entries[j]
        slot = entry.user_slot  # the row's limit, within what is left of the budget and user cap
        lim = max(min(remaining, limits[j], user_caps[slot] - user_used[slot]), 0.0)
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
            user_used[slot] += q
            recurse(j + 1, remaining - q)
            user_used[slot] -= q

    recurse(0, table.budget)
    assert best is not None
    return _assemble(users, table, best, "grid_search")
