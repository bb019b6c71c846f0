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

The bidding rounds read a BidLayout that bidders builds once per run
from the run's RegimeTable: each distinct (utility, weight, beta) once
as a curve, and per participant its rows' curve slots, offsets and
caps. demands evaluates each curve once at price / beta, and each
participant adds its rows' min(max(r - c, 0), cap) left to right in a
plain loop, clipped at the user's cap. A bid is price times that demand
plus the user's offsets, moved from the previous bid by at most the
round's step (round_bids). The step shrinks exponentially, so the
bidding protocol's fixed-point iteration cannot oscillate forever; the
caller computes it once per round, and damp_bid, looked up per bid,
only clamps. user_rate_at_price and vip_bid wrap them for one user,
through a one-user table.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import DomainError, SolverError
from .utility import Application, CaseFlag, RegimeTable, UserProfile, app_rows


def app_rate_at_price(
    app: Application,
    price: float,
    cap: float = math.inf,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """Rate maximizing weight * ln U(r + c) - price * (r + c) over [0, cap].

    c is the application's offset under the capacity regime. Zero-weight
    applications demand nothing; otherwise the root of the first-order
    condition, less c, is clamped to [0, cap].
    """
    if not (math.isfinite(price) and price > 0.0):
        raise DomainError(f"price must be positive, got {price!r}")
    if cap < 0.0:
        raise DomainError(f"cap must be nonnegative, got {cap!r}")
    if app.weight == 0.0 or cap == 0.0:
        return 0.0
    rate = app.demand_at(price) - case.app_offset(app)
    if rate == cap == math.inf:
        raise SolverError(f"demand at price {price} exceeds float range", bracket=(0.0, rate))
    return min(max(rate, 0.0), cap)


class Bidder(NamedTuple):
    """One participant as the bidding rounds read it: cap (inf: none) bounds
    its rate above offset, and rows hold (curve slot, offset, cap or inf) of
    each application whose weight is nonzero, the slot indexing
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


def bidders(table: RegimeTable) -> BidLayout:
    """The table's participants as a BidLayout, in order, each bounded by
    its user cap above its offset."""
    users, case = table.participants, table.case
    slots: dict[tuple, int] = {}
    curves = []
    rows: list[list] = [[] for _ in users]
    for row in table.rows:
        if row.app.weight != 0.0:
            beta = users[row.user_slot].beta
            slot = slots.setdefault((row.app.utility, row.app.weight, beta), len(curves))
            if slot == len(curves):
                curves.append((row.app.demand_at, beta))
            rows[row.user_slot].append((slot, row.offset, row.cap))
    members = tuple(
        Bidder(user.user_id, user.beta, cap, case.user_offset(user), tuple(user_rows))
        for user, cap, user_rows in zip(users, table.user_caps, rows)
    )
    return BidLayout(tuple(curves), members)


def _one_user(user: UserProfile, user_cap: float, case: CaseFlag) -> BidLayout:
    """The BidLayout of one user; bids read no budget."""
    return bidders(RegimeTable(case, (user,), math.inf, (user_cap,), app_rows((user,), case)))


def demands(layout: BidLayout, price: float) -> list[float]:
    """Each member's total rate above its offset at the given price.

    beta scales the whole log-utility sum, so it enters as a price
    rescale and the rows demand independently: each distinct curve is
    evaluated once, at price / beta, and each member adds its own rows,
    each between 0 and its cap, left to right, as a plain loop. A
    binding cap is taken whole: marginal utilities stay positive.
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
        total = 0.0
        for i, c, lim in rows:
            rate = values[i] - c
            if rate > 0.0:  # a rate of 0 or below adds nothing
                total += rate if rate <= lim else lim
        # Raise where an uncapped row's demand (lim inf) is itself inf.
        if total == math.inf and any(lim == values[i] - c == math.inf for i, c, lim in rows):
            raise SolverError(f"demand at price {p} exceeds float range", bracket=(0.0, math.inf))
        out.append(total if total <= cap else cap)
    return out


def round_bids(
    layout: BidLayout, price: float, step: float, prev: Mapping[str, float],
) -> dict[str, float]:
    """Every member's bid, by user id, for its demand and its offset,
    price * (rate + offset), damped toward it from prev by the round's step."""
    bids = {}
    for (user_id, _, _, offset, _), rate in zip(layout.members, demands(layout, price)):
        bids[user_id] = damp_bid(price * (rate + offset), prev[user_id], step)
    return bids


def user_rate_at_price(
    user: UserProfile, price: float, user_cap: float = math.inf,
    case: CaseFlag = CaseFlag.TARGETS_BELOW_CAPACITY,
) -> float:
    """The demand of one user under the regime, capped in total by user_cap."""
    if user_cap < 0.0:
        raise DomainError(f"user_cap must be nonnegative, got {user_cap!r}")
    return demands(_one_user(user, user_cap, case), price)[0]


def damp_bid(proposed: float, prev: float, step: float) -> float:
    """Move a bid from prev toward proposed, never past it, by at most step.

    The protocol's step for round n is l1 * e^{-n / l2}; once steps fall
    below the stop threshold its convergence test necessarily fires.
    """
    diff = proposed - prev
    if abs(diff) > step:
        return prev + math.copysign(step, diff)
    return proposed


def vip_bid(
    user: UserProfile, price: float, round_index: int, prev_bid: float, l1: float, l2: float,
    *, case: CaseFlag,
) -> float:
    """The bid of one user for round round_index under the regime (capped
    per application and in total when capacity is scarce)."""
    layout = _one_user(user, case.user_cap(user), case)
    step = l1 * math.exp(-round_index / l2)
    return round_bids(layout, price, step, {user.user_id: prev_bid})[user.user_id]
