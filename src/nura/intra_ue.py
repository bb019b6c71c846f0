"""Second-stage split of one user's allocated rate among its applications.

Given the rate r_opt a user won in the bidding stage, find per-app
rates maximizing the weighted sum of log-utilities subject to the
budget. The dual view: each trial internal price p induces per-app
demands; total demand is nonincreasing in p, so a search on p finds
the price where demand meets the budget. The search takes Newton steps
in ln p inside a bracket that bisection steps keep shrinking. It starts
from a given price, in a full run the bidding stage's final price /
beta, which by KKT is the answer itself under abundant capacity; from
there the bracket grows by doubling the price or by halving it down to
a vanishing floor. Each trial price starts every
application's demand search from its rate at the previous trial.

Under scarce capacity the split competes below the targets (objective
on U(r), target-bearing apps capped at their targets). Under abundant
capacity every target is granted first and the objective works above
them (U(r + target)); returned rates then include the targets.

The sigmoid's marginal-value curve has a long flat stretch below the
inflection, where demand can jump across a single representable price.
When the search runs out of price resolution before meeting the budget,
the leftover is parked on the app with the flattest response, which is
exactly where the optimum puts it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ContractError, DomainError, SolverError
from .price_response import app_rate_at_price
from .utility import NEG_INF, AppRow, CaseFlag, UserProfile, app_rows

# Tighter than the app-level default so that summed per-app wobble stays
# far below the budget tolerance even for many applications.
_SPLIT_TOL = 1e-10

_PRICE_EPS = 1e-12
_MAX_PRICE_STEPS = 200


@dataclass(frozen=True)
class InternalAllocation:
    """Per-app rates handed out by the second stage.

    rates are final allocations (targets included under abundant
    capacity); internal_price is the dual value the split settled on;
    slack is the unspent part of the budget, nonzero only when even a
    vanishing price cannot consume it.
    """

    rates: tuple[float, ...]
    internal_price: float
    slack: float


def _per_app_rates(
    rows: tuple[AppRow, ...], price: float, case: CaseFlag, prior: list[float] | None = None
) -> list[float]:
    """Rates (offsets included) at price, each search starting from its prior rate."""
    starts = [None] * len(rows) if prior is None else prior
    return [
        row.offset
        + app_rate_at_price(
            row.app, price, row.cap, case, _SPLIT_TOL, None if start is None else start - row.offset
        )
        for row, start in zip(rows, starts)
    ]


def allocate_internal(
    user: UserProfile,
    r_opt: float,
    case: CaseFlag,
    start_price: float = 1.0,
) -> InternalAllocation:
    """Split r_opt among the user's applications by an internal-price search.

    Under abundant capacity r_opt must cover the user's total target
    (the bidding stage guarantees it). Under scarce capacity any budget
    beyond the target caps flows to the uncapped applications; if every
    application is capped, the leftover stays as slack. The search
    begins at start_price; the first stage's final price / beta is the
    answer itself when capacity is abundant.
    """
    if not (math.isfinite(r_opt) and r_opt >= 0.0):
        raise DomainError(f"r_opt must be finite and nonnegative, got {r_opt!r}")
    if not (math.isfinite(start_price) and start_price > 0.0):
        raise DomainError(f"start_price must be positive, got {start_price!r}")
    rows = app_rows([user], case)
    granted = case.user_offset(user)
    budget = r_opt
    feas_tol = 1e-6 * max(r_opt, 1.0)

    if r_opt < granted - feas_tol:
        raise ContractError(
            f"user {user.user_id!r}: r_opt {r_opt} does not cover total target "
            f"{granted} under abundant capacity"
        )

    offsets = [row.offset for row in rows]

    if all(app.weight == 0.0 for app in user.apps):
        # Unreachable for valid scenarios (weights sum to 1); handled so a
        # hand-built profile degrades predictably instead of looping.
        warnings.warn(
            f"user {user.user_id!r} has all-zero application weights; "
            "allocating target offsets only",
            RuntimeWarning,
            stacklevel=2,
        )
        rates = tuple(offsets)
        return InternalAllocation(rates, math.inf, budget - sum(rates))

    if budget == 0.0:
        return InternalAllocation(tuple(0.0 for _ in user.apps), math.inf, 0.0)

    if case is CaseFlag.TARGETS_BELOW_CAPACITY and budget <= granted + feas_tol:
        # Nothing meaningful above the targets; grant exactly those.
        rates = tuple(offsets)
        return InternalAllocation(rates, math.inf, budget - sum(rates))

    tol_sum = 1e-9 * max(budget, 1.0)

    # Newton on ln(demand above the offsets) as a function of ln p; for
    # log apps it is nearly linear. Each app strictly inside (0, cap)
    # moves with ln p at 1 / (its dlog_slope), the others not at all.
    # The bracket [lo, hi] holds the price: the demand at lo exceeds the
    # budget, at hi not. An end not yet found is open (lo = 0, hi = inf),
    # and a step toward it may at most double or halve the price, which
    # is also the fallback; halving stops at _PRICE_EPS, where a demand
    # still short of the budget leaves slack. Otherwise a step that
    # leaves the bracket, or does not halve the step before last,
    # becomes a bisection step in ln p.
    lo, hi = 0.0, math.inf
    rates_lo = rates_hi = None
    price = max(start_price, _PRICE_EPS)
    rates = _per_app_rates(rows, price, case)
    last_step = prior_step = math.inf
    for _ in range(_MAX_PRICE_STEPS):
        total = sum(rates)
        if abs(total - budget) <= tol_sum or (price == _PRICE_EPS and total < budget):
            # Met the budget, or even a vanishing price under-consumes:
            # positive slack is legal.
            return InternalAllocation(tuple(rates), price, budget - total)
        if total > budget:
            lo, rates_lo = price, rates
        else:
            hi, rates_hi = price, rates
        response = sum(
            1.0 / row.app.utility.dlog_slope(rate)
            for row, rate in zip(rows, rates)
            if row.offset < rate and (row.cap is None or rate < row.offset + row.cap)
        )
        surplus = total - granted
        step = math.nan
        if response < 0.0 and surplus > 0.0:
            step = math.log((budget - granted) / surplus) * surplus / response
        trial = math.nan
        if abs(step) <= min(0.5 * prior_step, 700.0):
            trial = price * math.exp(step)
        floor = lo if lo > 0.0 else max(0.5 * hi, _PRICE_EPS)
        ceiling = hi if hi < math.inf else 2.0 * lo
        if not (floor < trial < ceiling):
            if hi == math.inf:
                trial = ceiling
            elif lo == 0.0:
                # No app can take more at a lower price once all sit at
                # their caps, so go straight to the smallest one.
                saturated = all(
                    row.app.weight == 0.0 or (row.cap is not None and rate >= row.offset + row.cap)
                    for row, rate in zip(rows, rates)
                )
                trial = _PRICE_EPS if saturated else floor
            else:
                trial = math.sqrt(lo * hi)
                if not (lo < trial < hi):
                    break  # bracket collapsed to adjacent floats
        prior_step, last_step = last_step, abs(math.log(trial / price))
        price, rates = trial, _per_app_rates(rows, trial, case, rates)

    if rates_lo is None or rates_hi is None:
        raise SolverError(
            f"no internal price in ({lo}, {hi}) meets the budget {budget}",
            bracket=(lo, hi),
        )
    # Price resolution exhausted before the sum tolerance: some app sits
    # on the flat part of its marginal-value curve and its demand jumps
    # across one representable price. Take the feasible side and park
    # the leftover on the flattest responders, capped where caps apply.
    final = list(rates_hi)
    residual = budget - sum(final)
    order = sorted(
        range(len(final)), key=lambda j: rates_lo[j] - rates_hi[j], reverse=True
    )
    for j in order:
        if residual <= 0.0:
            break
        cap = rows[j].cap
        give = residual if cap is None else min(residual, cap - final[j])
        if give > 0.0:
            final[j] += give
            residual -= give
    return InternalAllocation(tuple(final), 0.5 * (lo + hi), budget - sum(final))


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
