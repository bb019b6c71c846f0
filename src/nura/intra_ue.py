"""Price clearing: the end of the bidding stage and the whole second stage.

clear_price finds the price at which a regime table's participants
spend its budget: each application demands the rate where its marginal
value meets price / beta; an uncapped user competes app by app, a
capped one as min(its demand, its cap). Safeguarded Newton steps in
ln p find that price. Where demand jumps across a relative price change
below float resolution (a sigmoid's flat stretch), every amount is
topped up between its demands at the ends of a 1e-10-wide bracket by
one common fraction.

The bidding stage ends with one clearing (protocol); allocate_internal
clears a user's rate among its applications: on U(r) with targets as
caps under scarce capacity, else on U(r + target), rates including it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ContractError, DomainError, SolverError
from .price_response import app_rate_at_price
from .utility import NEG_INF, CaseFlag, RegimeTable, UserProfile, app_rows

_RATE_TOL = 1e-10  # summed over many apps, still far below the budget tolerance
_PRICE_RTOL = 1e-10
_PRICE_FLOOR = 1e-150
_MAX_PRICE_STEPS = 200


@dataclass(frozen=True)
class InternalAllocation:
    """Per-app rates handed out by the second stage.

    rates are final allocations (targets included under abundant
    capacity); slack is the unspent part of the budget, nonzero only
    when every application sits at its cap.
    """

    rates: tuple[float, ...]
    slack: float


def clear_price(
    table: RegimeTable, price: float, starts: list[float | None]
) -> tuple[float, list[float], list[float]]:
    """(price, per-user shares, per-row rates) that spend table.budget.

    Shares and rates are amounts above the offsets; a capped user's rows
    hold its demand at the price, not a split of its share. The search
    starts at price and each row's demand search at its entry of starts
    (None: cold). Slack is left only when every application sits at its
    cap; a budget no price above the floor spends raises SolverError.
    """
    rows, caps, budget = table.rows, table.user_caps, table.budget
    betas = [user.beta for user in table.participants]
    # No row can take more than its cap, its user's cap or the budget.
    limits = [
        min(c for c in (row.cap, caps[row.user_slot], budget) if c is not None) for row in rows
    ]

    def demand(price: float, starts) -> tuple[list[float], list[float]]:  # (shares, rates)
        rates = [
            app_rate_at_price(
                row.app, price / betas[row.user_slot], limit, table.case, _RATE_TOL, start
            )
            for row, limit, start in zip(rows, limits, starts)
        ]
        shares = [0.0] * len(caps)
        for row, rate in zip(rows, rates):
            shares[row.user_slot] += rate
        return [s if cap is None else min(s, cap) for s, cap in zip(shares, caps)], rates

    # Newton on ln(total demand) as a function of ln p; for log apps it
    # is nearly linear. Each free row (weighted, and neither it nor its
    # user at a cap) moves with ln p at 1 / (d/dr ln (ln U)' at its rate).
    # The bracket [lo, hi] holds the price: the demand at lo exceeds the
    # budget, at hi not; an end not yet found is open (lo = 0, hi = inf).
    # A step that leaves the bracket, or does not halve the step before
    # last, becomes a bisection step in ln p, or while the bracket is open
    # a step out by a factor that starts at 2 and squares on each repeat.
    tol = 1e-9 * max(budget, 1.0)
    lo, hi = 0.0, math.inf
    price = max(price, _PRICE_FLOOR)
    shares, rates = demand(price, starts)
    last_step = prior_step = math.inf
    stretch = 2.0
    for _ in range(_MAX_PRICE_STEPS):
        total = sum(shares)
        if abs(total - budget) <= tol:
            return price, shares, rates
        full = [cap is not None and share >= cap for share, cap in zip(shares, caps)]
        room = [
            (row, rate)
            for row, rate, limit in zip(rows, rates, limits)
            if rate < limit and not full[row.user_slot]
        ]
        free = [(row, rate) for row, rate in room if row.app.weight > 0.0]
        if total > budget:
            lo, lower = price, (shares, rates)
        elif free and price > _PRICE_FLOOR:
            hi, upper = price, (shares, rates)
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
            if jumps <= 1 or not lo < math.sqrt(lo * hi) < hi:
                break
        response = sum(
            1.0 / row.app.utility.dlog_and_slope(rate + row.offset)[1]
            for row, rate in free if rate > 0.0
        )
        step = math.nan
        if response < 0.0 and total > 0.0:
            step = math.log(budget / total) * total / response
        trial = math.nan
        if abs(step) <= 0.5 * prior_step and step < 700.0:
            trial = max(price * math.exp(step), _PRICE_FLOOR)
        if not lo < trial < hi:
            trial = math.sqrt(lo * hi)  # fails the test below while open
        if lo < trial < hi:
            prior_step, last_step = last_step, abs(math.log(trial / price))
            stretch = 2.0
        else:
            trial = lo * stretch if hi == math.inf else max(hi / stretch, _PRICE_FLOOR)
            prior_step = last_step = math.inf
            stretch *= stretch
        price = trial
        shares, rates = demand(price, rates)
    else:
        raise SolverError(f"no price in ({lo}, {hi}) meets the budget {budget}", bracket=(lo, hi))

    # Some demand jumps inside the bracket: top every amount up from the
    # upper price's demand toward the lower price's by one fraction.
    fraction = (budget - sum(upper[0])) / (sum(lower[0]) - sum(upper[0]))
    shares, rates = (
        [u + fraction * (v - u) for u, v in zip(high, low)] for high, low in zip(upper, lower)
    )
    return hi, shares, rates


def allocate_internal(
    user: UserProfile,
    r_opt: float,
    case: CaseFlag,
    start_price: float = 1.0,
) -> InternalAllocation:
    """Split r_opt among the user's applications by clearing their price.

    Under abundant capacity r_opt must cover the user's total target
    (the bidding stage guarantees it). Under scarce capacity any budget
    beyond the target caps flows to the uncapped applications; if every
    application is capped, the leftover stays as slack. The search
    begins at the internal price start_price; the first stage's final
    price / beta is the answer itself for a user its cap does not bind.
    """
    if not (math.isfinite(r_opt) and r_opt >= 0.0):
        raise DomainError(f"r_opt must be finite and nonnegative, got {r_opt!r}")
    if not (math.isfinite(start_price) and start_price > 0.0):
        raise DomainError(f"start_price must be positive, got {start_price!r}")
    rows = app_rows([user], case)
    granted = case.user_offset(user)
    feas_tol = 1e-6 * max(r_opt, 1.0)

    if r_opt < granted - feas_tol:
        raise ContractError(
            f"user {user.user_id!r}: r_opt {r_opt} does not cover total target "
            f"{granted} under abundant capacity"
        )

    offsets = tuple(row.offset for row in rows)
    weightless = all(app.weight == 0.0 for app in user.apps)
    if weightless:
        # Unreachable for valid scenarios (weights sum to 1); handled so a
        # hand-built profile degrades predictably instead of looping.
        warnings.warn(
            f"user {user.user_id!r} has all-zero application weights; "
            "allocating target offsets only",
            RuntimeWarning,
            stacklevel=2,
        )
    elif r_opt == 0.0:
        return InternalAllocation(tuple(0.0 for _ in user.apps), 0.0)
    if weightless or (case is CaseFlag.TARGETS_BELOW_CAPACITY and r_opt <= granted + feas_tol):
        # Nothing meaningful above the targets; grant exactly those.
        return InternalAllocation(offsets, r_opt - sum(offsets))

    # The user's rows share r_opt above its offsets, each app within its
    # own cap; the user's cap is already inside r_opt.
    table = RegimeTable(case, (user,), r_opt - granted, (None,), rows)
    _, shares, rates = clear_price(table, start_price * user.beta, [None] * len(rows))
    return InternalAllocation(
        tuple(rate + offset for rate, offset in zip(rates, offsets)), table.budget - shares[0]
    )


def split_value(user: UserProfile, rates, case: CaseFlag) -> float:
    """Weighted log-utility of a candidate split (comparison objective).

    rates are the amounts above the target offsets; under abundant
    capacity each application is evaluated at rate + target. Returns the
    -inf sentinel when any positively weighted factor is zero.
    """
    if len(rates) != len(user.apps):
        raise ContractError(
            f"user {user.user_id!r} has {len(user.apps)} applications "
            f"but {len(rates)} rates were given"
        )
    total = 0.0
    for row, rate in zip(app_rows([user], case), rates):
        if rate < 0.0:
            raise ContractError(f"infeasible split: negative rate {rate!r}")
        if row.cap is not None and rate > row.cap + 1e-9:
            raise ContractError(
                f"infeasible split: rate {rate!r} above target cap {row.cap!r} "
                "under scarce capacity"
            )
        if row.app.weight == 0.0:
            continue
        log_value = row.app.utility.log_evaluate(rate + row.offset)
        if log_value == NEG_INF:
            return NEG_INF
        total += row.app.weight * log_value
    return total
