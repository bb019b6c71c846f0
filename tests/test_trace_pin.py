"""One digest over the reference runs' bids, prices and rates, pinned.

Any change to the demand, the bids or the clearings that moves a single
bit of a round's bid or price, or of a user or application rate, moves
the digest. Rework of those paths that claims to be bit-identical must
leave it as it is.
"""

import hashlib
from dataclasses import replace

import pytest

from nura import bundled_schedule_path, load_schedule, run_once, scenario

# SHA-256 of _digest_lines over _cells, frozen from the code it guards.
# Without the application rates the digest is
# 4b2c72ea257ea91a12d8ca3ac872ecacac167df4512881b484bead6179db023d.
PINNED = "517869e032b0660d8b8c300109a80d22ce78fdb5fc47e6111b2a98f6d50e31de"


def _cells(cell):
    """The 40 sweep cells, the schedule's 3 epochs, and the reference cell
    with ue3's beta at 2, where ue3's curves equal ue1's but its prices do not."""
    cells = [replace(cell, capacity=5.0 * i) for i in range(1, 41)]
    cells += [
        scenario._apply_weights(cell, epoch)
        for epoch in load_schedule(bundled_schedule_path()).epochs
    ]
    users = tuple(
        replace(user, beta=2.0) if user.user_id == "ue3" else user for user in cell.users
    )
    return cells + [replace(cell, users=users)]


def _digest_lines(record):
    for state in record.trace:
        bids = ",".join(f"{uid}={bid.hex()}" for uid, bid in state.bids.items())
        yield f"round {state.round_index} {state.price.hex()} {bids}"
    for uid, rate in record.user_rates.items():
        apps = ",".join(rate.hex() for rate in record.app_rates[uid])
        yield f"user {uid} {rate.hex()} {apps}"
    yield f"final {record.final_price.hex()}"


@pytest.fixture(scope="module")
def records(cell):
    return [run_once(config, keep_trace=True) for config in _cells(cell)]


def test_trace_digest_is_pinned(records):
    digest = hashlib.sha256()
    for record in records:
        for line in _digest_lines(record):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED


def test_app_rates_sum_to_user_rates(records):
    # Each share is made of the closing clearing's rows, and a user whose
    # demand passes its rate is cleared again from the final price; a
    # fresh clearing of every user left sums up to 7.3e-11 off here.
    for record in records:
        for uid, rate in record.user_rates.items():
            assert sum(record.app_rates[uid]) == pytest.approx(rate, rel=1e-12, abs=0), (
                record.capacity, uid)
