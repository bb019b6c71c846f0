"""Price clearing, which ends the bidding stage, and the second stage.

clear_price finds the price at which a regime table's participants
spend its budget: each application demands the rate where its marginal
value meets price / beta, in closed form at each trial price; an
uncapped user competes app by app, a capped one as min(its demand, its
cap). Safeguarded Newton steps in ln p find that price from a given
start price; next to a sigmoid row's plateau price p0, where they
overshoot, secant steps in s = asinh((p - p0) / d) take over, in which
that row's demand is linear. Where demand jumps across a relative
price change below float resolution (a sigmoid's flat stretch), every
amount is topped up between its demands at the ends of a 1e-10-wide
bracket by one common fraction. Each trial is one loop over the rows
for the demands and one for the step's bookkeeping, and every total is
added left to right, so a clearing gives the same bits on every
CPython version.

The bidding stage ends with one clearing (protocol), whose rows are
every application's rate. allocate_internal hands a user those rows,
and clears its own rows again only when it is capped and they pass its
rate: on U(r) with targets as caps under scarce capacity, else on
U(r + target), rates including it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import SolverError
from .price_response import app_rate_at_price
from .utility import AppRow, RegimeTable, SigmoidalUtility, UserProfile, add_up, app_rows

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import FirstStageResult

_PRICE_RTOL = 1e-10
_PRICE_FLOOR = 1e-150
_MAX_PRICE_STEPS = 200
_STALL_STEPS = 4  # steps in s within which the bracket must halve, else it is bisected


def _geometric_mean(lo: float, hi: float) -> float:
    """sqrt(lo * hi), also where the product overflows; nan for 0 and inf."""
    product = lo * hi
    return math.sqrt(product) if product < math.inf else math.sqrt(lo) * math.sqrt(hi)


def _excess(total: float, budget: float) -> float:
    """ln(total / budget), -inf at total 0."""
    return math.log(total) - math.log(budget) if total > 0.0 else -math.inf


def _plateaus(rows: tuple[AppRow, ...]) -> list[tuple[float, float]]:
    """(p0, d) of each weighted sigmoid row: its demand falls across the
    curve's flat stretch at the price p0 = factor * a(1 + e^{-ab}), over a
    width d = 2 p0 e^{-ab/2} (at least 2 ulps of p0), and is linear in
    s = asinh((p - p0) / d) there; beyond d, s is ln|p - p0| less a constant."""
    plateaus = set()
    for row in rows:
        curve = row.app.utility
        if isinstance(curve, SigmoidalUtility) and row.factor > 0.0:
            p0 = row.factor * curve.a * (1.0 + math.exp(-curve.a * curve.b))
            plateaus.add((p0, max(2.0 * p0 * math.exp(-0.5 * curve.a * curve.b),
                                  2.0 * math.ulp(p0))))
    return sorted(plateaus)


def clear_price(table: RegimeTable, price: float) -> tuple[float, list[float], list[float]]:
    """(price, per-user shares, per-row rates) that spend table.budget.

    Shares and rates are amounts above the offsets; a capped user's rows
    hold its demand at the price, not a split of its share. The search
    starts at price. Slack is left only when every application sits at
    its cap; a budget no price above the floor spends, or one that every
    price up to the float range overspends, raises SolverError.

    The s phase starts at the first Newton step rejected in a closed
    bracket [lo, hi] that holds a plateau p0 (_plateaus) with lo >= p0 / 2
    + d^2 / (2 p0), where s resolves prices at least as finely as ln p.
    The plateau nearest the last trial is taken. Once the bracket has
    moved past it, the plateau in the bracket nearest the last trial takes
    over, if there is one; else it is kept, since past p0 its demand stays
    linear in s. The bracket only shrinks, so each plateau is taken at
    most once. From then on each trial is a secant step on ln(total /
    budget) in s through the last two trials, or a bisection in s where
    that step leaves the bracket or the bracket has not halved in
    _STALL_STEPS steps (in ln p where that rounds onto an end). The
    plateaus choose trial prices only: the bracket updates, the stop tests
    and the top-up do not read them, and a clearing that rejects no Newton
    step never computes them.
    """
    rows, caps, budget, case = table.rows, table.user_caps, table.budget, table.case
    betas = [user.beta for user in table.participants]
    ceiling = sys.float_info.max * min(1.0, *betas)  # keeps every price / beta finite
    # Each row's user slot and limit: no row can take more than its cap,
    # its user's cap or the budget.
    slots, limits = [], []
    for row in rows:
        slots.append(row.user_slot)
        limits.append(min(row.cap, caps[row.user_slot], budget))

    def demand(price: float) -> tuple[list[float], list[float], float]:  # shares, rates, total
        rates = []
        shares = [0.0] * len(caps)
        for row, slot, limit in zip(rows, slots, limits):
            rate = app_rate_at_price(row.app, price / betas[slot], limit, case)
            rates.append(rate)
            shares[slot] += rate
        total = 0.0  # added left to right, the same bits on every CPython
        for slot, cap in enumerate(caps):
            if shares[slot] > cap:
                shares[slot] = cap
            total += shares[slot]
        return shares, rates, total

    # Newton on ln(total demand) as a function of ln p; for log apps it
    # is nearly linear. Each free row (weighted, and neither it nor its
    # user at a cap) moves with ln p at 1 / (d/dr ln (ln U)' at its rate).
    # The bracket [lo, hi] holds the price: the demand at lo exceeds the
    # budget, at hi not; an end not yet found is open (lo = 0, hi = inf).
    # A step that leaves the bracket, or does not halve the step before
    # last, is rejected: it becomes a step in s (see above) or a bisection
    # step in ln p, or while the bracket is open a step out by a factor
    # that starts at 2 and squares on each repeat.
    tol = 1e-9 * budget
    lo, hi = 0.0, math.inf
    price = min(max(price, _PRICE_FLOOR), ceiling)
    shares, rates, total = demand(price)
    last_step = prior_step = math.inf
    stretch = 2.0
    last_price = last_total = math.nan  # the trial before this one
    plateaus = None  # computed at the first rejected Newton step
    anchor = width = None  # the plateau (p0, d) the search steps around, if any
    spans: list[float] = []  # the bracket's widths in s

    def level(price: float) -> float:  # the search variable s around the plateau
        return math.asinh((price - anchor) / width)

    def at_level(s: float) -> float:  # the price at level s; sinh overflows past 710
        return anchor + width * math.sinh(min(max(s, -710.0), 710.0))

    for _ in range(_MAX_PRICE_STEPS):
        if abs(total - budget) <= tol:
            return price, shares, rates
        # One pass over the rows: does any have room (below its limit, its
        # user not at its cap), is one of those free (weighted), and which
        # free rows demand a positive rate (their slopes give the step).
        room = free = False
        moving = []
        for row, slot, rate, limit in zip(rows, slots, rates, limits):
            if rate < limit and shares[slot] < caps[slot]:
                room = True
                if row.app.weight > 0.0:
                    free = True
                    if rate > 0.0:
                        moving.append((row, rate))
        if total > budget and price < ceiling:
            lo, lower = price, (shares, rates, total)
        elif total > budget:
            raise SolverError(
                f"demand {total} exceeds the budget {budget} at every price up to {price}",
                bracket=(lo, price),
            )
        elif free and price > _PRICE_FLOOR:
            hi, upper = price, (shares, rates, total)
        elif not room:
            return price, shares, rates  # every application sits at its cap: slack
        else:
            raise SolverError(
                f"demand saturates: {total} stays below the budget {budget} "
                f"at every price down to {price}",
                bracket=(price, hi),
            )
        if hi - lo <= _PRICE_RTOL * hi < math.inf:
            # Rows that jump inside the bracket are told apart to adjacent floats.
            jumps = sum(v - u > tol for u, v in zip(upper[1], lower[1]))
            if jumps <= 1 or not lo < _geometric_mean(lo, hi) < hi:
                break
        if anchor is None:
            # A row whose slope is 0 or not finite (k * r overflowed a log
            # app) tells nothing of the response and is left out.
            response = 0.0
            for row, rate in moving:
                slope = row.app.utility.dlog_and_slope(rate + row.offset)[1]
                if -math.inf < slope < 0.0:
                    response += 1.0 / slope
            step = math.nan
            if response < 0.0 and total > 0.0:
                step = math.log(budget / total) * total / response
            trial = math.nan
            if abs(step) <= 0.5 * prior_step and step < 700.0:
                trial = max(price * math.exp(step), _PRICE_FLOOR)
            seek = 0.0 < lo and not lo < trial < hi  # rejected in a closed bracket
        else:
            seek = not lo <= anchor <= hi  # the bracket moved past the anchor
        if seek:
            # Step in s around the plateau in the bracket nearest the price,
            # if there is one; else keep stepping as before.
            if plateaus is None:
                plateaus = _plateaus(rows)
            near = [(p0, d) for p0, d in plateaus
                    if lo <= p0 <= hi < math.inf and p0 + d * (d / p0) <= 2.0 * lo]
            if near:
                anchor, width = min(near, key=lambda plateau: abs(price - plateau[0]))
                spans = []
        if anchor is not None:
            # Secant step on ln(total / budget) in s through the last two
            # trials, or bisection in s where it leaves the bracket or the
            # bracket has not halved in _STALL_STEPS steps.
            bottom, top = level(lo), level(hi)
            spans.append(top - bottom)
            stalled = len(spans) > _STALL_STEPS and spans[-1] > 0.5 * spans[-1 - _STALL_STEPS]
            here = level(price)
            excess = _excess(total, budget)
            rise = excess - _excess(last_total, budget)
            target = here - excess * (here - level(last_price)) / rise if rise else math.nan
            trial = at_level(target) if bottom < target < top and not stalled else math.nan
            if not lo < trial < hi:
                trial = at_level(0.5 * (bottom + top))
        if not lo < trial < hi:
            trial = _geometric_mean(lo, hi)  # fails the test below while open
        if lo < trial < hi:
            prior_step, last_step = last_step, abs(math.log(trial / price))
            stretch = 2.0
        else:
            if hi == math.inf:
                trial = min(lo * stretch, ceiling)
            else:
                trial = max(hi / stretch, _PRICE_FLOOR)
            prior_step = last_step = math.inf
            stretch *= stretch
        last_price, last_total = price, total
        price = trial
        shares, rates, total = demand(price)
    else:
        raise SolverError(f"no price in ({lo}, {hi}) meets the budget {budget}", bracket=(lo, hi))

    # Some demand jumps inside the bracket: top every amount up from the
    # upper price's demand toward the lower price's by one fraction.
    fraction = (budget - upper[2]) / (lower[2] - upper[2])
    shares, rates = (
        [u + fraction * (v - u) for u, v in zip(high, low)]
        for high, low in zip(upper[:2], lower[:2])
    )
    return hi, shares, rates


def allocate_internal(user: UserProfile, first: FirstStageResult) -> tuple[float, ...]:
    """The user's application rates, targets included, given the first stage.

    They are the closing clearing's rows, unless the user has a cap and
    those rows, its demand at the final price, pass its rate; then its
    own rows alone clear the rate above its offsets, from the final
    price.
    """
    uid, case = user.user_id, first.case
    demands = first.app_demands[uid]
    if case.user_cap(user) == math.inf or add_up(demands) <= first.rates[uid]:
        return demands
    rows = app_rows([user], case)
    table = RegimeTable(case, (user,), first.rates[uid] - case.user_offset(user), (math.inf,), rows)
    _, _, rates = clear_price(table, first.final_price)
    return tuple(rate + row.offset for rate, row in zip(rates, rows))

