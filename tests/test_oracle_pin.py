"""One digest over the oracle's rates and objectives on the pinned cells.

centralized_solve certifies the pipeline, so its own bits are pinned as
the pipeline's are: any change to the oracle's demand search, its
clearings or its totals that moves a single bit of a user rate, an
application rate or the objective moves the digest. Rework that claims
to be bit-identical must leave it as it is.
"""

import hashlib

from test_trace_pin import _cells

from nura import centralized_solve

# SHA-256 of _digest_lines over test_trace_pin's _cells, frozen from the
# code it guards; totals are added left to right, so it holds on every
# supported CPython.
PINNED = "86237af7a4056ec7ce5ab3999ad36eb5d0f0a4a4887fc9b92ce5112c80272972"


def _digest_lines(result):
    for uid, rate in result.user_rates.items():
        apps = ",".join(rate.hex() for rate in result.app_rates[uid])
        yield f"user {uid} {rate.hex()} {apps}"
    yield f"objective {result.objective.hex()}"


def test_oracle_digest_is_pinned(cell):
    digest = hashlib.sha256()
    for config in _cells(cell):
        for line in _digest_lines(centralized_solve(config.users, config.capacity)):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED
