"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root. It is found by Newton steps on the log of the derivative, using
the utility's closed-form dlog_slope, inside a bisection bracket that
keeps them safe on the sigmoid's flat stretch. The search starts from
a given rate: in the bidding stage the application's demand of the
previous round, in a price clearing its demand at the previous trial,
and otherwise the cap, or the curve's rate_scale when uncapped. The
marginal value there tells on which side the root lies; above, the
bracket grows by bounded doubling, below, it reaches down to the
zero-demand probe. The capacity regime sets c (the target when
capacity is abundant, else 0). A user's demand is the sum of its
applications' demands at price p / beta, optionally clipped by an
aggregate cap.

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
    start: float | None = None,
) -> float:
    """Rate maximizing weight * ln U(r + c) - price * (r + c) over [0, cap].

    c is the application's offset under the capacity regime. Zero-weight
    applications demand nothing. The search begins at start, typically
    the demand at a nearby price (by default the cap, or the curve's
    rate_scale when uncapped), and resolves the rate to abs_tol.
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if cap is not None and cap < 0.0:
        raise DomainError(f"cap must be nonnegative, got {cap!r}")
    if start is not None and math.isnan(start):
        raise DomainError(f"start must be a rate, got {start!r}")
    if app.weight == 0.0 or cap == 0.0:
        return 0.0
    offset = case.app_offset(app)
    weight = app.weight
    utility = app.utility
    top = math.inf if cap is None else cap

    # Demand collapses to 0 when the marginal value just above zero rate
    # is already below the price. With no offset the derivative blows up
    # at 0, so probe a hair inside the domain. The probe only runs when
    # the root lies below the start.
    probe = 0.0 if offset > 0.0 else abs_tol
    if start is None:
        start = utility.rate_scale if cap is None else cap
    rate = min(max(start, probe), top)
    marginal = utility.dlog_evaluate(rate + offset)
    if rate == cap and weight * marginal >= price:
        return cap
    if weight * marginal > price:
        lo, hi = rate, math.inf
    elif rate == probe or weight * utility.dlog_evaluate(probe + offset) <= price:
        return 0.0
    else:
        lo, hi = 0.0, rate

    # Newton on h(r) = ln (ln U)'(r + c) - ln(price / weight), stepping in
    # ln(r + c), where h is nearly linear at small rates; its slope is
    # dlog_slope * (r + c). The bracket [lo, hi] holds the root; hi is
    # infinite while no rate above the root has been seen, and a step up
    # may then at most double the rate (to at least rate_scale, never
    # past the cap), which is also the fallback. A step that leaves the
    # bracket, or does not halve the step before last, becomes such a
    # doubling or a bisection step. The answer is the midpoint of a
    # bracket at most abs_tol wide.
    log_target = math.log(price / weight)
    half_tol = 0.5 * abs_tol
    last_step = prior_step = math.inf
    doublings = 0
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
        ceiling = hi if hi < math.inf else min(max(2.0 * lo, utility.rate_scale), top)
        if not (abs(step) <= 0.5 * prior_step and lo < trial < ceiling):
            if hi == math.inf:
                trial = ceiling
                doublings += 1
                if doublings > _MAX_BRACKET_DOUBLINGS:
                    raise SolverError(
                        f"no finite demand bracket below rate {trial}", bracket=(lo, trial)
                    )
            else:
                trial = 0.5 * (lo + hi)
                if not (lo < trial < hi):
                    # Adjacent floats: for rates this large one ulp exceeds
                    # the absolute tolerance, so this is as exact as it gets.
                    return trial
        prior_step, last_step = last_step, abs(trial - rate)
        rate = trial
        marginal = utility.dlog_evaluate(rate + offset)
        if rate == cap and weight * marginal >= price:
            return cap
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
    demands: list[float | None] | None = None,
) -> float:
    """Total rate above its offsets the user demands at the given price.

    The subscription weight beta scales the whole log-utility sum, so it
    enters exactly as a price rescale and the problem separates into
    independent per-application solves, each within its own cap under
    the regime. When the aggregate cap binds the user simply takes it:
    the capped optimum always exhausts it because marginal utilities
    stay positive. demands, when given, holds one rate per application
    (None for no estimate): each solve starts there, and the list is
    overwritten with the new per-application demands.
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if user_cap is not None and user_cap < 0.0:
        raise DomainError(f"user_cap must be nonnegative, got {user_cap!r}")
    per_app_price = price / user.beta
    if demands is None:
        demands = [None] * len(user.apps)
    total = 0.0
    for j, app in enumerate(user.apps):
        demands[j] = rate = app_rate_at_price(
            app, per_app_price, case.app_cap(app), case, start=demands[j]
        )
        total += rate
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
    demands: list[float | None] | None = None,
) -> float:
    """One user's damped bid for the current round.

    The user demands a rate above its offsets under the regime (capped
    per application and in total when capacity is scarce) and bids for
    that rate and its offsets, price * (rate + offsets): the plain
    price * rate under scarce capacity or without targets. demands is
    passed on to user_rate_at_price: the per-application demands of the
    previous round, replaced by this round's.
    """
    rate = user_rate_at_price(user, price, case.user_cap(user), case, demands)
    proposed = price * (rate + case.user_offset(user))
    return damp_bid(proposed, prev_bid, round_index, l1, l2)
