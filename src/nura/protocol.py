"""First-stage bidding between users and the base station.

A deterministic synchronous-round simulation: the base station turns
the current bid vector into a shadow price (total bids / capacity),
every participating user answers with a damped bid built from its
demand at that price, and the loop stops once no bid moved by the
threshold delta. The participants are laid out once per run as a
price_response BidLayout, read from the run's regime table. A round is
the price (floored), its trace entry and one price_response.round_bids
call with the round's damping step l1 * e^{-n / l2}. That call is the
whole round in one pass: every distinct demand curve is evaluated once,
users that share one (same utility, weight and beta) read the same
value, and each user's rows are added, capped and turned into its
damped bid in member order, next to its last bid in the previous
round's dict. It returns the bids, their total added left to right as
add_up does (the same bits on every CPython version), and whether any
bid moved by delta or more; round 1 takes both from the start bids
against bids of 0. Each round's bid dict goes into the trace uncopied.
Damped bids stop short of the fixed point, so the rates come from one
exact clearing (intra_ue.clear_price) that starts from the stop round's
price. Its rows are each user's split of its rate (the allocation), but
a capped user's rows, its demand at that price, may pass its rate: then
its own rows clear its share again from the final price.

When the VIP users' aggregate target rates reach the capacity, only VIP
users participate and their demand is capped at their targets, per
application and in total; regular users are excluded and end with zero
rate. Otherwise everyone bids, with VIP bids carrying their targets on
top of demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .errors import ContractError, DomainError, NonConvergenceError, ProtocolError
from .intra_ue import clear_price
from .price_response import bidders, round_bids, vip_bid  # noqa: F401 (tracers rebind vip_bid here)

# determine_case is re-exported: the regime is part of this stage's interface.
from .utility import CaseFlag, RegimeTable, UserProfile, add_up, regime_table
from .utility import determine_case  # noqa: F401


@dataclass(frozen=True)
class ProtocolParams:
    """Tunables of the bidding loop.

    delta is the stop threshold on per-user bid change; l1, l2 shape the
    exponentially shrinking damping step l1 * e^{-n / l2}; w_init
    overrides the initial bid (default: capacity / participants, further
    limited to 0.4 * l1 * l2).  The limit matters: the damping schedule
    only allows about 0.86 * l1 * l2 of total bid movement after round 1,
    so a start point too far from the fixed point freezes short of it.
    """

    delta: float = 1e-3
    l1: float = 5.0
    l2: float = 10.0
    max_rounds: int = 10000
    w_init: float | None = None
    price_floor: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError(f"delta must be positive, got {self.delta!r}")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.l1, self.l2)):
            raise DomainError(
                f"damping constants must be positive and finite, "
                f"got l1={self.l1!r}, l2={self.l2!r}"
            )
        rounds = self.max_rounds
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 2:
            raise DomainError(f"max_rounds must be an integer of at least 2, got {rounds!r}")
        if self.w_init is not None and not (math.isfinite(self.w_init) and self.w_init > 0.0):
            raise DomainError(f"w_init must be positive when given, got {self.w_init!r}")
        if not (math.isfinite(self.price_floor) and self.price_floor > 0.0):
            raise DomainError(f"price_floor must be positive, got {self.price_floor!r}")


class RoundState(NamedTuple):
    """Snapshot of one round: the bids received and the price they imply.

    Only participating users appear in bids; excluded users are absent,
    not zero. Each round's bids are a dict of their own, never copied
    and never changed after the round. converged marks the stop round.
    """

    round_index: int
    bids: Mapping[str, float]
    price: float
    converged: bool


@dataclass(frozen=True)
class FirstStageResult:
    """Outcome of the bidding stage.

    rates (every user in declaration order, excluded ones at exactly 0.0)
    and final_price come from the clearing after the loop, and so do
    app_rates, the allocation: each user's split of its rate among its
    applications, targets included (all 0.0 for an excluded user). trace
    lists one RoundState per executed round, the stop round included.
    """

    case: CaseFlag
    rates: Mapping[str, float]
    app_rates: Mapping[str, tuple[float, ...]]
    final_price: float
    trace: tuple[RoundState, ...] = field(repr=False)
    rounds_used: int


def run_first_stage(
    users: Sequence[UserProfile],
    capacity: float,
    params: ProtocolParams | None = None,
) -> FirstStageResult:
    """Run the bidding loop to convergence, then clear the price exactly.

    Synchronous rounds: price from current bids, then all participants
    respond, then repeat. Deterministic: identical inputs produce an
    identical trace. Raises NonConvergenceError (with the trace attached)
    if max_rounds passes without the stop test firing.
    """
    if params is None:
        params = ProtocolParams()
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    if len({user.user_id for user in users}) != len(users):
        raise ContractError("user ids must be unique")

    table = regime_table(users, capacity)
    layout = bidders(table)
    if not layout.members:
        raise ProtocolError("scenario has no participating users")

    if params.w_init is not None:
        w_init = params.w_init
    else:
        # Uniform start, but never above 0.4*l1*l2.  The schedule allows
        # about 0.86*l1*l2 of total movement after round 1, and a bid may
        # overshoot before turning around, so the start point must leave
        # most of that budget unspent or bids freeze short of the fixed
        # point once the steps shrink below delta.
        w_init = min(capacity / len(layout.members), 0.4 * params.l1 * params.l2)

    delta, floor, l1, l2 = params.delta, params.price_floor, params.l1, params.l2
    # Round 1 prices the start bids and tests them against bids of 0.0.
    bids = {bidder.user_id: w_init for bidder in layout.members}
    total, moved = add_up(bids.values()), not w_init < delta
    trace: list[RoundState] = []

    for round_index in range(1, params.max_rounds + 1):
        price = total / capacity
        if price < floor:
            price = floor
        trace.append(RoundState(round_index, bids, price, not moved))
        if not moved:
            break
        bids, total, moved = round_bids(layout, price, l1 * math.exp(-(round_index + 1) / l2),
                                        bids, delta)
    else:
        raise NonConvergenceError(
            f"bidding did not converge within {params.max_rounds} rounds "
            f"(delta={params.delta})",
            trace=trace,
            rounds=params.max_rounds,
        )

    final_price, shares, row_rates = clear_price(table, price)
    rates = dict.fromkeys((user.user_id for user in users), 0.0)
    app_rates = {user.user_id: (0.0,) * len(user.apps) for user in users}
    splits = [[] for _ in shares]
    for row, rate in zip(table.rows, row_rates):
        splits[row.user_slot].append(rate + row.offset)
    for slot, (bidder, share, split) in enumerate(zip(layout.members, shares, splits)):
        rate = share + bidder.offset
        if bidder.cap < math.inf and add_up(split) > rate:
            # A capped user's rows are its demand at final_price: clear its share on them.
            rows = tuple(row._replace(user_slot=0) for row in table.rows if row.user_slot == slot)
            own = RegimeTable(table.case, (table.participants[slot],), share, (math.inf,), rows)
            split = [r + row.offset for r, row in zip(clear_price(own, final_price)[2], rows)]
        rates[bidder.user_id] = rate
        app_rates[bidder.user_id] = tuple(split)
    return FirstStageResult(
        case=table.case,
        rates=rates,
        app_rates=app_rates,
        final_price=final_price,
        trace=tuple(trace),
        rounds_used=round_index,
    )


def allocate_internal(user: UserProfile, first: FirstStageResult) -> tuple[float, ...]:
    """The second stage: the user's application rates, targets included,
    which run_first_stage has already split. It stays a function because
    the benchmark's tracer spans it and its harness counts its calls."""
    return first.app_rates[user.user_id]


def trace_records(result) -> list[tuple[int, str, float, float]]:
    """Flatten a trace into (round, user_id, bid, price) rows.

    result is a FirstStageResult, or anything else carrying its trace
    (such as a RunRecord kept with its trace). Rows are ordered by
    round, then by the participant order of the run. A record kept
    without its trace raises ContractError.
    """
    if result.trace is None:
        raise ContractError("trace emission requires records produced with keep_trace")
    rows: list[tuple[int, str, float, float]] = []
    for state in result.trace:
        for uid, bid in state.bids.items():
            rows.append((state.round_index, uid, bid, state.price))
    return rows
