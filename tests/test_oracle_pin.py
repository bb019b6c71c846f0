"""Two digests over the oracle's rates and objectives, pinned.

centralized_solve certifies the pipeline, so its own bits are pinned as
the pipeline's are: any change to the demand the oracle reads, its
clearings or its totals that moves a single bit of a user rate, an
application rate or the objective moves a digest. Rework that claims
to be bit-identical must leave both as they are. PINNED covers the
reference cells; WIDE_PINNED the benchmark's fuzz cells at seeds 3, 7, 8
and 11 and its large cell at seed 7, where capped users' splits, exit
jumps and plateau phases run, and where some cells raise.
"""

import hashlib
import warnings

from test_invariance import _drawn, _fuzz_trees
from test_trace_pin import _cells

from nura import NuraError, centralized_solve, scenario_from_dict

# SHA-256 of _digest_lines over test_trace_pin's _cells, frozen from the
# code it guards; totals are added left to right, so it holds on every
# supported CPython.
PINNED = "3407425375ca08121e282ef8240524fd628150cdd5436f51a399cb02ad8db1bc"
# SHA-256 of _wide_lines over _wide_configs, frozen likewise.
WIDE_PINNED = "b4823957d3a5dadddd8c7a7d3e2d636aee385252e949a667b7eedf79583dc598"


def _digest_lines(result):
    for uid, rate in result.user_rates.items():
        apps = ",".join(rate.hex() for rate in result.app_rates[uid])
        yield f"user {uid} {rate.hex()} {apps}"
    yield f"objective {result.objective.hex()}"


def _wide_configs():
    trees = [tree for seed in (3, 7, 8, 11) for tree in _fuzz_trees(seed)]
    trees.append(_drawn("large_tree", 7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the saturation warning
        return [scenario_from_dict(tree) for tree in trees]


def _wide_lines(config):
    """A solved cell's _digest_lines, or the class of the NuraError it raises."""
    try:
        result = centralized_solve(config.users, config.capacity)
    except NuraError as exc:
        yield f"raises {type(exc).__name__}"
        return
    yield from _digest_lines(result)


def _digest(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_oracle_digest_is_pinned(cell):
    assert _digest(line for config in _cells(cell)
                   for line in _digest_lines(centralized_solve(config.users, config.capacity))
                   ) == PINNED


def test_oracle_digest_over_the_fuzz_and_large_cells_is_pinned():
    assert _digest(line for config in _wide_configs() for line in _wide_lines(config)) == (
        WIDE_PINNED)
