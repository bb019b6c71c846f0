"""Price clearing, which ends the bidding stage, and the second stage.

clear_price finds the price at which a regime table's participants
spend its budget: each application demands the rate where its marginal
value meets price / beta, in closed form at each trial price; an
uncapped user competes app by app, a capped one as min(its demand, its
cap). Safeguarded Newton steps in ln p find that price from a given
start price. Where demand jumps across a relative price change below
float resolution (a sigmoid's flat stretch), every amount is topped up
between its demands at the ends of a 1e-10-wide bracket by one common
fraction. Each trial is one loop over the rows for the demands and
one for the Newton step's bookkeeping, and every total is added left
to right, so a clearing gives the same bits on every CPython version.

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
from .utility import RegimeTable, UserProfile, add_up, app_rows

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import FirstStageResult

_PRICE_RTOL = 1e-10
_PRICE_FLOOR = 1e-150
_MAX_PRICE_STEPS = 200


def _geometric_mean(lo: float, hi: float) -> float:
    """sqrt(lo * hi), also where the product overflows; nan for 0 and inf."""
    product = lo * hi
    return math.sqrt(product) if product < math.inf else math.sqrt(lo) * math.sqrt(hi)


def clear_price(table: RegimeTable, price: float) -> tuple[float, list[float], list[float]]:
    """(price, per-user shares, per-row rates) that spend table.budget.

    Shares and rates are amounts above the offsets; a capped user's rows
    hold its demand at the price, not a split of its share. The search
    starts at price. Slack is left only when every application sits at
    its cap; a budget no price above the floor spends, or one that every
    price up to the float range overspends, raises SolverError.
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
    # last, becomes a bisection step in ln p, or while the bracket is open
    # a step out by a factor that starts at 2 and squares on each repeat.
    tol = 1e-9 * budget
    lo, hi = 0.0, math.inf
    price = min(max(price, _PRICE_FLOOR), ceiling)
    shares, rates, total = demand(price)
    last_step = prior_step = math.inf
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
            # Rows that jump inside the bracket are told apart to adjacent floats.
            jumps = sum(v - u > tol for u, v in zip(upper[1], lower[1]))
            if jumps <= 1 or not lo < _geometric_mean(lo, hi) < hi:
                break
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

