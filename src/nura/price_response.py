"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root, and both curve shapes give it in closed form (the utility's
rate_at_marginal): a Lambert W value for a log curve, the root of a
quadratic in e^{ar} for a sigmoid. No search runs, so no demand needs a
start or a tolerance. The capacity regime sets c (the target when
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


def app_rate_at_price(
    app: Application,
    price: float,
    cap: float | None = None,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """Rate maximizing weight * ln U(r + c) - price * (r + c) over [0, cap].

    c is the application's offset under the capacity regime. Zero-weight
    applications demand nothing; otherwise the root of the first-order
    condition, less c, is clamped to [0, cap].
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if cap is not None and cap < 0.0:
        raise DomainError(f"cap must be nonnegative, got {cap!r}")
    if app.weight == 0.0 or cap == 0.0:
        return 0.0
    rate = app.utility.rate_at_marginal(price, app.weight) - case.app_offset(app)
    if rate == math.inf and cap is None:
        raise SolverError(f"demand at price {price} exceeds float range", bracket=(0.0, rate))
    return min(max(rate, 0.0), math.inf if cap is None else cap)


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
        app_rate_at_price(app, per_app_price, case.app_cap(app), case) for app in user.apps
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
