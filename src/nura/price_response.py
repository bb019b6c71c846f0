"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root, and both curve shapes give it in closed form (the utility's
rate_at_marginal): a Lambert W value for a log curve, the root of a
quadratic in e^{ar} for a sigmoid. No search runs, so no demand needs a
start or a tolerance. The capacity regime sets c (the target when
capacity is abundant, else 0): app_rate_at_price, used by the clearings.

A user's demand has one path, user_demand on a Bidder laid out once per
run: its rows' min(max(r(p / beta) - c, 0), cap) summed and clipped at
the user's cap. A bid is price times that demand plus the user's
offsets, smoothed between rounds by an exponentially shrinking step
(damp_bid) so the bidding protocol's fixed-point iteration cannot
oscillate forever. user_rate_at_price and vip_bid wrap them for one user.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, SolverError
from .utility import Application, CaseFlag, UserProfile, app_rows


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


class Bidder(NamedTuple):
    """One participant as the bidding rounds read it: cap (inf: none) bounds
    its rate above offset, and rows hold (rate_at_marginal, weight, offset,
    cap or inf) of each application whose weight and cap are nonzero."""

    user_id: str
    beta: float
    cap: float
    offset: float
    rows: tuple[tuple[Callable[[float, float], float], float, float, float], ...]


def bidders(case: CaseFlag, users: Sequence[UserProfile], caps: Sequence) -> tuple[Bidder, ...]:
    """The users as Bidders under the regime, in order, caps[i] (None: no
    cap) bounding user i's total rate above its offset."""
    rows: list[list] = [[] for _ in users]
    for row in app_rows(users, case):
        if row.app.weight != 0.0 and row.cap != 0.0:
            cap = math.inf if row.cap is None else row.cap
            rows[row.user_slot].append((row.app.utility.rate_at_marginal, row.app.weight,
                                        row.offset, cap))
    return tuple(
        Bidder(user.user_id, user.beta, math.inf if cap is None else cap,
               case.user_offset(user), tuple(user_rows))
        for user, cap, user_rows in zip(users, caps, rows)
    )


def user_demand(bidder: Bidder, price: float) -> float:
    """Total rate above its offset the bidder demands at the given price.

    beta scales the whole log-utility sum, so it enters as a price
    rescale and the rows demand independently. A binding cap is taken
    whole: marginal utilities stay positive.
    """
    _, beta, cap, _, rows = bidder
    p = price / beta
    if not 0.0 < p < math.inf:
        raise DomainError(f"price must be positive, got {p!r}")
    total = sum([min(max(f(p, w) - c, 0.0), lim) for f, w, c, lim in rows], 0.0)
    # Raise where an uncapped row's demand (lim inf) is itself inf.
    if total == math.inf and any(lim == f(p, w) - c == math.inf for f, w, c, lim in rows):
        raise SolverError(f"demand at price {p} exceeds float range", bracket=(0.0, math.inf))
    return min(total, cap)


def bid(bidder: Bidder, price: float, round_index: int, prev: float, l1: float, l2: float) -> float:
    """The bidder's damped bid for round round_index: it bids for its
    demand and its offset, price * (rate + offset)."""
    proposed = price * (user_demand(bidder, price) + bidder.offset)
    return damp_bid(proposed, prev, round_index, l1, l2)


def user_rate_at_price(
    user: UserProfile, price: float, user_cap: float | None = None,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """user_demand of one user under the regime, capped in total by user_cap."""
    if user_cap is not None and user_cap < 0.0:
        raise DomainError(f"user_cap must be nonnegative, got {user_cap!r}")
    return user_demand(bidders(case, (user,), (user_cap,))[0], price)


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
    user: UserProfile, price: float, round_index: int, prev_bid: float, l1: float, l2: float,
    *, case: CaseFlag,
) -> float:
    """The bid of one user under the regime (capped per application and
    in total when capacity is scarce)."""
    bidder = bidders(case, (user,), (case.user_cap(user),))[0]
    return bid(bidder, price, round_index, prev_bid, l1, l2)
