"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root. It is found by Newton steps on the log of the derivative, using
the utility's closed-form dlog_slope, inside a bisection bracket that
keeps them safe on the sigmoid's flat stretch. The capacity
regime sets c (the target when capacity is abundant, else 0). A user's
demand is the sum of its applications' demands at price p / beta,
optionally clipped by an aggregate cap.

Bids are price times demanded rate, smoothed between rounds by an
exponentially shrinking step so the fixed-point iteration of the
bidding protocol cannot oscillate forever.
"""

from __future__ import annotations

import math

from .errors import DomainError, SolverError
from .utility import Application, CaseFlag, UserProfile


_MAX_ITERS = 200
_MAX_BRACKET_DOUBLINGS = 60


def app_rate_at_price(
    app: Application,
    price: float,
    cap: float | None = None,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
    abs_tol: float = 1e-8,
) -> float:
    """Rate maximizing weight * ln U(r + c) - price * (r + c) over [0, cap].

    c is the application's offset under the capacity regime. Zero-weight
    applications demand nothing. The rate is resolved to abs_tol.
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if app.weight == 0.0:
        return 0.0
    offset = case.app_offset(app)
    weight = app.weight
    utility = app.utility

    # Demand collapses to 0 when the marginal value just above zero rate
    # is already below the price. With no offset the derivative blows up
    # at 0, so probe a hair inside the domain.
    probe = 0.0 if offset > 0.0 else abs_tol
    if weight * utility.dlog_evaluate(probe + offset) <= price:
        return 0.0

    lo = 0.0
    if cap is not None:
        if cap < 0.0:
            raise DomainError(f"cap must be nonnegative, got {cap!r}")
        if cap == 0.0:
            return 0.0
        hi = cap
        marginal = utility.dlog_evaluate(hi + offset)
        if weight * marginal >= price:
            return cap
    else:
        hi = utility.rate_scale
        marginal = utility.dlog_evaluate(hi + offset)
        doublings = 0
        while weight * marginal > price:
            lo, hi = hi, 2.0 * hi
            doublings += 1
            if doublings > _MAX_BRACKET_DOUBLINGS:
                raise SolverError(
                    f"no finite demand bracket below rate {hi}", bracket=(0.0, hi)
                )
            marginal = utility.dlog_evaluate(hi + offset)

    # Newton on h(r) = ln (ln U)'(r + c) - ln(price / weight), stepping in
    # ln(r + c), where h is nearly linear at small rates; its slope is
    # dlog_slope * (r + c). It starts from the upper end of the bracket
    # [lo, hi], which always holds the root. A step that leaves the
    # bracket, or does not halve the step before last, becomes a
    # bisection step. The answer is the midpoint of a bracket at most
    # abs_tol wide.
    log_target = math.log(price / weight)
    half_tol = 0.5 * abs_tol
    rate = hi
    last_step = prior_step = math.inf
    for _ in range(_MAX_ITERS):
        if hi - lo <= abs_tol:
            return 0.5 * (lo + hi)
        step = math.nan
        arg = rate + offset
        if 0.0 < marginal < math.inf:
            slope = utility.dlog_slope(arg) * arg
            if slope < 0.0:
                log_step = (log_target - math.log(marginal)) / slope
                step = arg * math.expm1(log_step) if log_step < 700.0 else math.inf
                if abs(step) <= half_tol:
                    # Converged: land half a tolerance past the estimate,
                    # beyond the root, so the next test closes the bracket.
                    above = weight * marginal > price
                    step = abs(step) + half_tol if above else -abs(step) - half_tol
        trial = rate + step
        if not (abs(step) <= 0.5 * prior_step and lo < trial < hi):
            trial = 0.5 * (lo + hi)
            if not (lo < trial < hi):
                # Adjacent floats: for rates this large one ulp exceeds the
                # absolute tolerance, so this is as exact as it gets.
                return trial
        prior_step, last_step = last_step, abs(trial - rate)
        rate = trial
        marginal = utility.dlog_evaluate(rate + offset)
        if weight * marginal > price:
            lo = rate
        else:
            hi = rate
    raise SolverError(
        f"demand search did not reach tolerance {abs_tol} "
        f"in {_MAX_ITERS} iterations",
        bracket=(lo, hi),
    )


def user_rate_at_price(
    user: UserProfile,
    price: float,
    user_cap: float | None = None,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """Total rate above its offsets the user demands at the given price.

    The subscription weight beta scales the whole log-utility sum, so it
    enters exactly as a price rescale and the problem separates into
    independent per-application solves, each within its own cap under
    the regime. When the aggregate cap binds the user simply takes it:
    the capped optimum always exhausts it because marginal utilities
    stay positive.
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if user_cap is not None and user_cap < 0.0:
        raise DomainError(f"user_cap must be nonnegative, got {user_cap!r}")
    per_app_price = price / user.beta
    total = sum(
        app_rate_at_price(app, per_app_price, case.app_cap(app), case)
        for app in user.apps
    )
    if user_cap is not None and total > user_cap:
        return user_cap
    return total


def damp_bid(proposed: float, prev: float, round_index: int, l1: float, l2: float) -> float:
    """Clamp a bid update to the shrinking step l1 * e^{-n / l2}.

    Moves from prev toward proposed, never past it, by at most the step
    for round n; once steps fall below the stop threshold the protocol's
    convergence test necessarily fires.
    """
    if round_index < 1:
        raise DomainError(f"round_index must be at least 1, got {round_index!r}")
    if not (l1 > 0.0 and l2 > 0.0):
        raise DomainError(f"damping constants must be positive, got l1={l1!r}, l2={l2!r}")
    step = l1 * math.exp(-round_index / l2)
    diff = proposed - prev
    if abs(diff) > step:
        return prev + math.copysign(step, diff)
    return proposed


def vip_bid(
    user: UserProfile,
    price: float,
    round_index: int,
    prev_bid: float,
    l1: float,
    l2: float,
    *,
    case: CaseFlag,
) -> float:
    """One user's damped bid for the current round.

    The user demands a rate above its offsets under the regime (capped
    per application and in total when capacity is scarce) and bids for
    that rate and its offsets, price * (rate + offsets): the plain
    price * rate under scarce capacity or without targets.
    """
    rate = user_rate_at_price(user, price, case.user_cap(user), case)
    proposed = price * (rate + case.user_offset(user))
    return damp_bid(proposed, prev_bid, round_index, l1, l2)
