"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root, and both curve shapes give it in closed form: a Lambert W value
for a log curve, the root of a quadratic in e^{ar} for a sigmoid. Each
Application caches that closed form for its weight (demand_at, built by
the utility's demand_curve), so no demand needs a start, a tolerance or
a per-call constant. The capacity regime sets c (the target when
capacity is abundant, else 0): app_rate_at_price, used by the clearings.

The bidding rounds read a BidLayout built once per run (bidders): each
distinct (utility, weight, beta) once as a curve, and per participant
its rows' curve slots, offsets and caps. demands evaluates each curve
once at price / beta and sums every participant's rows'
min(max(r - c, 0), cap), clipped at the user's cap. A bid is price
times that demand plus the user's offsets, smoothed between rounds by
an exponentially shrinking step (damp_bid) so the bidding protocol's
fixed-point iteration cannot oscillate forever (round_bids).
user_rate_at_price and vip_bid wrap them for one user.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

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
    rate = app.demand_at(price) - case.app_offset(app)
    if rate == math.inf and cap is None:
        raise SolverError(f"demand at price {price} exceeds float range", bracket=(0.0, rate))
    return min(max(rate, 0.0), math.inf if cap is None else cap)


class Bidder(NamedTuple):
    """One participant as the bidding rounds read it: cap (inf: none) bounds
    its rate above offset, and rows hold (curve slot, offset, cap or inf) of
    each application whose weight and cap are nonzero, the slot indexing
    its BidLayout's curves."""

    user_id: str
    beta: float
    cap: float
    offset: float
    rows: tuple[tuple[int, float, float], ...]


class BidLayout(NamedTuple):
    """Participants laid out for the rounds: curves holds each distinct
    (utility, weight, beta) once, as (the application's demand, beta)."""

    curves: tuple[tuple[Callable[[float], float], float], ...]
    members: tuple[Bidder, ...]


def bidders(case: CaseFlag, users: Sequence[UserProfile], caps: Sequence) -> BidLayout:
    """The users as a BidLayout under the regime, in order, caps[i] (None:
    no cap) bounding user i's total rate above its offset."""
    slots: dict[tuple, int] = {}
    curves = []
    rows: list[list] = [[] for _ in users]
    for row in app_rows(users, case):
        if row.app.weight != 0.0 and row.cap != 0.0:
            beta = users[row.user_slot].beta
            slot = slots.setdefault((row.app.utility, row.app.weight, beta), len(curves))
            if slot == len(curves):
                curves.append((row.app.demand_at, beta))
            cap = math.inf if row.cap is None else row.cap
            rows[row.user_slot].append((slot, row.offset, cap))
    members = tuple(
        Bidder(user.user_id, user.beta, math.inf if cap is None else cap,
               case.user_offset(user), tuple(user_rows))
        for user, cap, user_rows in zip(users, caps, rows)
    )
    return BidLayout(tuple(curves), members)


def demands(layout: BidLayout, price: float) -> list[float]:
    """Each member's total rate above its offset at the given price.

    beta scales the whole log-utility sum, so it enters as a price
    rescale and the rows demand independently: each distinct curve is
    evaluated once, at price / beta, and each member sums its own rows
    between 0 and their caps. A binding cap is taken whole: marginal
    utilities stay positive.
    """
    # nan marks a price out of range; its members raise below, in order.
    values = [
        curve(p) if 0.0 < (p := price / beta) < math.inf else math.nan
        for curve, beta in layout.curves
    ]
    out = []
    for _, beta, cap, _, rows in layout.members:
        p = price / beta
        if not 0.0 < p < math.inf:
            raise DomainError(f"price must be positive, got {p!r}")
        total = sum([min(max(values[i] - c, 0.0), lim) for i, c, lim in rows], 0.0)
        # Raise where an uncapped row's demand (lim inf) is itself inf.
        if total == math.inf and any(lim == values[i] - c == math.inf for i, c, lim in rows):
            raise SolverError(f"demand at price {p} exceeds float range", bracket=(0.0, math.inf))
        out.append(min(total, cap))
    return out


def round_bids(
    layout: BidLayout, price: float, round_index: int, prev: Mapping[str, float],
    l1: float, l2: float,
) -> dict[str, float]:
    """Every member's damped bid for round round_index, by user id: it bids
    for its demand and its offset, price * (rate + offset)."""
    return {
        member.user_id: damp_bid(
            price * (rate + member.offset), prev[member.user_id], round_index, l1, l2
        )
        for member, rate in zip(layout.members, demands(layout, price))
    }


def user_rate_at_price(
    user: UserProfile, price: float, user_cap: float | None = None,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """The demand of one user under the regime, capped in total by user_cap."""
    if user_cap is not None and user_cap < 0.0:
        raise DomainError(f"user_cap must be nonnegative, got {user_cap!r}")
    return demands(bidders(case, (user,), (user_cap,)), price)[0]


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
    layout = bidders(case, (user,), (case.user_cap(user),))
    return round_bids(layout, price, round_index, {user.user_id: prev_bid}, l1, l2)[user.user_id]
