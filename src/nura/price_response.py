"""Price-driven demand of applications and users, plus bid shaping.

Given a shadow price p, each application demands the rate maximizing
weight * ln U(r + c) - p * (r + c). Because ln U is strictly concave,
the first-order condition weight * (ln U)'(r + c) = p has at most one
root, which both curve shapes give in closed form, cached on each
Application for its weight (demand_at, built by the utility's
demand_curve). c is its row's offset, set by regime_table with the
row's cap: app_rate_at_price, which the clearings call per row.

The bidding rounds read a BidLayout that bidders builds once per run
from the run's RegimeTable: the table's curves, each distinct (utility,
weight, beta) once, and per participant its rows' curve slots, offsets
and caps, its user cap, and its offset: its rows' offsets added in row
order. The certifier (oracle.centralized_solve) reads a price through
the same curves, but none of the clearing, the rounds, app_rate_at_price
or dlog_slope. round_bids is one whole round in one pass: it evaluates
each curve once at price / beta, then for each participant in layout
order adds its rows' min(max(r - c, 0), cap) left to right, clips the
sum at the user's cap, bids price times that demand plus the user's
offsets, moved from its last bid by at most the round's step, and adds
the bid to the round's total and stop test, which it returns with the
bids. The step shrinks exponentially, so the bidding protocol's
fixed-point iteration cannot oscillate forever; damp_bid, looked up per
bid, only clamps. user_rate_at_price adds app_rate_at_price over one
participant's rows of a table the same way, and vip_bid is round_bids for
one participant of the table's layout.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

from .errors import DomainError, SolverError
from .utility import Application, RegimeTable


def app_rate_at_price(app: Application, price: float, cap: float = math.inf,
                      offset: float = 0.0) -> float:
    """Rate maximizing weight * ln U(r + c) - price * (r + c) over [0, cap].

    c is offset, the rate granted before the application competes (its
    row's offset; 0.0, the default, grants nothing). Zero-weight
    applications demand nothing; otherwise the root of the first-order
    condition, less c, is clamped to [0, cap].
    """
    if not 0.0 < price < math.inf:
        raise DomainError(f"price must be positive, got {price!r}")
    if not cap >= 0.0:
        raise DomainError(f"cap must be nonnegative, got {cap!r}")
    if app.weight == 0.0 or cap == 0.0:
        return 0.0
    rate = app.demand_at(price) - offset
    if 0.0 < rate < cap:  # interior: the clamp below would return it as is
        return rate
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
    its user cap above its offset, its rows' offsets added in row order, on
    the table's curves."""
    users = table.participants
    rows: list[list] = [[] for _ in users]
    offsets = [0.0] * len(users)
    for row, slot in zip(table.rows, table.curve_of):
        offsets[row.user_slot] += row.offset
        if slot is not None:
            rows[row.user_slot].append((slot, row.offset, row.cap))
    new = tuple.__new__  # a NamedTuple's own __new__ runs as a Python frame
    members = tuple(
        new(Bidder, (user.user_id, user.beta, cap, offset, tuple(user_rows)))
        for user, cap, offset, user_rows in zip(users, table.user_caps, offsets, rows)
    )
    return new(BidLayout, (tuple((app.demand_at, beta) for app, beta in table.curves), members))


def round_bids(
    layout: BidLayout, price: float, step: float, prev: Mapping[str, float], delta: float,
) -> tuple[dict[str, float], float, bool]:
    """One bidding round: (bids, total, moved). bids holds every member's
    bid, by user id, price * (rate + offset), damped toward it by the
    round's step from its last bid, read from prev in member order; total
    is their add_up, to the bit; moved is true when some bid is not
    within delta of its last one (a nan difference is not).

    beta scales the whole log-utility sum, so it enters as a price
    rescale and the rows demand independently: each distinct curve is
    evaluated once, at price / beta, and each member adds its own rows,
    each between 0 and its cap, left to right, as a plain loop, clipped
    at the member's cap. A binding cap is taken whole: marginal
    utilities stay positive.
    """
    inf = math.inf
    # nan marks a price out of range; its members raise below, in order.
    # A plain loop: p bound in a comprehension would be a closure cell here.
    values = []
    for curve, beta in layout.curves:
        p = price / beta
        values.append(curve(p) if 0.0 < p < inf else math.nan)
    bids = {}
    total, moved = 0.0, False
    for (user_id, beta, cap, offset, rows), last in zip(layout.members, prev.values()):
        p = price / beta
        if not 0.0 < p < inf:
            raise DomainError(f"price must be positive, got {p!r}")
        demand = 0.0
        for i, c, lim in rows:
            rate = values[i] - c
            if rate > 0.0:  # a rate of 0 or below adds nothing
                demand += rate if rate <= lim else lim
        # Raise where an uncapped row's demand (lim inf) is itself inf.
        if demand == inf and any(lim == values[i] - c == inf for i, c, lim in rows):
            raise SolverError(f"demand at price {p} exceeds float range", bracket=(0.0, math.inf))
        bids[user_id] = bid = damp_bid(price * ((demand if demand <= cap else cap) + offset),
                                       last, step)
        total += bid
        moved = moved or not abs(bid - last) < delta
    return bids, total, moved


def user_rate_at_price(table: RegimeTable, slot: int, price: float) -> float:
    """The demand of the table's participant at slot: its rows' demands at
    price / beta, each between 0 and its cap above its offset, added left
    to right and capped in total by its user cap."""
    beta, user_cap = table.participants[slot].beta, table.user_caps[slot]
    total = 0.0
    for row in table.rows:
        if row.user_slot == slot:
            total += app_rate_at_price(row.app, price / beta, row.cap, row.offset)
    return total if total <= user_cap else user_cap


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
    table: RegimeTable, slot: int, price: float, round_index: int, prev_bid: float,
    l1: float, l2: float,
) -> float:
    """The bid for round round_index of the table's participant at slot,
    from prev_bid, as round_bids makes it on the table's layout."""
    curves, members = bidders(table)
    member = members[slot]
    step = l1 * math.exp(-round_index / l2)
    prev = {member.user_id: prev_bid}
    return round_bids(BidLayout(curves, (member,)), price, step, prev, math.inf)[0][member.user_id]
