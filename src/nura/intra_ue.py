"""Price clearing, which ends the bidding stage.

clear_price finds the price at which a regime table's participants
spend its budget: each application demands the rate where its marginal
value meets price / beta, in closed form at each trial price; an
uncapped user competes app by app, a capped one as min(its demand, its
cap). One safeguarded Newton search finds that price from a given start
price, in a coordinate t of the price: ln p, in which log apps' total
demand is nearly linear, or next to a sigmoid row's plateau price p0,
where steps in ln p overshoot, s = asinh((p - p0) / d), in which that
row's demand is linear. Where demand jumps across a relative price
change below what t resolves (a sigmoid's flat stretch), every amount
is topped up between its demands at the ends of a 1e-10-wide bracket by
one common fraction. Each trial is one loop over the rows for the
demands and one for the step's bookkeeping, and every total is added
left to right, so a clearing gives the same bits on every CPython
version.

The bidding stage ends with one clearing (protocol) of every
participant's rows, and clears a capped user's own rows again where they
pass its rate: on U(r) with targets as caps under scarce capacity, else
on U(r + target), rates including it.
"""

from __future__ import annotations

import math
import sys

from .errors import SolverError
from .price_response import app_rate_at_price
from .utility import AppRow, RegimeTable, SigmoidalUtility

_PRICE_RTOL = 1e-10
_PRICE_FLOOR = 1e-150
_MAX_PRICE_STEPS = 200


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

    The bracket [lo, hi] holds the price. Each trial takes the Newton
    step in ln p times dt / d ln p, a step in t: t is ln p, or s around a
    plateau (p0, d) (_plateaus), where that factor is p / hypot(p - p0, d).
    The step is taken if it lands inside the bracket and is at most half
    the step before last. Else an open bracket steps out by a factor that
    starts at 2 and squares on each repeat, and a closed one is bisected
    in t, with t first taken around the plateau nearest where the line
    through the bracket's totals in ln p meets the budget, among those
    with lo / 2 <= p0 and p0 + d^2 / p0 <= 2 lo (s resolves prices at
    least as finely as ln p there; p0 may lie just past an end). A
    midpoint that rounds onto an end means that t resolves no price
    between them: a demand jumps there. The plateaus choose trial prices
    only: the bracket updates, the stop tests and the top-up ignore them.
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
    entries = [(row.app, betas[slot], limit, slot)
               for row, slot, limit in zip(rows, slots, limits)]

    def demand(price: float) -> tuple[list[float], list[float], float]:  # shares, rates, total
        rates = []
        shares = [0.0] * len(caps)
        for app, beta, limit, slot in entries:
            rate = app_rate_at_price(app, price / beta, limit, case)
            rates.append(rate)
            shares[slot] += rate
        total = 0.0  # added left to right, the same bits on every CPython
        for slot, cap in enumerate(caps):
            if shares[slot] > cap:
                shares[slot] = cap
            total += shares[slot]
        return shares, rates, total

    anchor = width = None  # the plateau (p0, d) that t is taken around, if any
    plateaus = None  # computed at the first step rejected in a closed bracket

    def to_t(price: float) -> float:
        return math.log(price) if anchor is None else math.asinh((price - anchor) / width)

    def price_at(t: float) -> float:  # to_t's inverse, where exp and sinh stay finite
        if anchor is None:
            return min(max(math.exp(min(t, 709.0)), _PRICE_FLOOR), ceiling)
        return anchor + width * math.sinh(min(max(t, -710.0), 710.0))

    # The demand at lo exceeds the budget, at hi not; an end not yet found is 0 or inf.
    tol = 1e-9 * budget
    lo, hi = 0.0, math.inf
    price = min(max(price, _PRICE_FLOOR), ceiling)
    shares, rates, total = demand(price)
    last_step = prior_step = math.inf  # the last two steps taken in t
    stretch = 2.0
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
            # Rows that jump inside the bracket are told apart as far as t resolves.
            jumps = sum(v - u > tol for u, v in zip(upper[1], lower[1]))
            if jumps <= 1:
                break
        # Newton on ln(total demand) as a function of ln p; for log apps it
        # is nearly linear. Each free row (weighted, and neither it nor its
        # user at a cap) moves with ln p at 1 / (d/dr ln (ln U)' at its
        # rate); a row whose slope is 0 or not finite (k * r overflowed a
        # log app) tells nothing of the response and is left out.
        response = 0.0
        for row, rate in moving:
            slope = row.app.utility.dlog_and_slope(rate + row.offset)[1]
            if -math.inf < slope < 0.0:
                response += 1.0 / slope
        step = math.nan
        if response < 0.0 and total > 0.0:
            step = math.log(budget / total) * total / response
            if anchor is not None:
                step *= price / math.hypot(price - anchor, width)  # dt / d ln p
        here = to_t(price)
        target = here + step
        trial = price_at(target) if abs(step) <= 0.5 * prior_step else math.nan
        if 0.0 < lo and hi < math.inf and not lo < trial < hi:
            if plateaus is None:
                plateaus = _plateaus(rows)
            near = [(p0, d) for p0, d in plateaus
                    if 0.5 * lo <= p0 and p0 + d * (d / p0) <= 2.0 * lo]
            if near:
                share = (lower[2] - budget) / (lower[2] - upper[2])  # of the bracket in ln p
                aim = math.log(lo) + share * (math.log(hi) - math.log(lo))
                plateau = min(near, key=lambda plateau: abs(math.log(plateau[0]) - aim))
                if plateau != (anchor, width):  # a new t: halving starts afresh
                    anchor, width = plateau
                    here, last_step = to_t(price), math.inf
            target = 0.5 * (to_t(lo) + to_t(hi))
            trial = price_at(target)
            if not lo < trial < hi:
                break  # t resolves no price between lo and hi
        if lo < trial < hi:
            prior_step, last_step = last_step, abs(target - here)
            stretch = 2.0
        else:
            if hi == math.inf:
                trial = min(lo * stretch, ceiling)
            else:
                trial = max(hi / stretch, _PRICE_FLOOR)
            prior_step = last_step = math.inf
            stretch *= stretch
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

