"""The benchmark's traced run on the library as it stands.

bench/tracer.py rebinds functions by name in scenario, protocol,
price_response and intra_ue, and harness.per_layer divides by their call
counts, so a renamed or moved function breaks `bench/run.py --trace 1`
without failing any library test. This runs the harness's traced
measurement on a short reference sweep in a subprocess: the tracer
patches modules and the harness's clock installs an interval timer, and
neither should leak into this process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sweep points R = 5..50 (scarce; ue1's rows are split again at R = 50)
# and the three schedule epochs at R = 200.
_TRACED_RUN = """
import math, sys
root, spans = sys.argv[1:]
sys.path[:0] = [root + "/bench", root + "/src"]
import cells, harness
result = harness.measure(cells.ref_sweep(0, points=10)[0], 0.0, True, 50, trace_to=spans)
assert result.correct, (result.errors, result.certify_errors, result.digests)
layers = harness.per_layer(result, 0.01)
bad = {name: layers.get(name) for name in harness.PER_LAYER_UNITS
       if not math.isfinite(layers.get(name, math.nan))}
assert not bad, bad
"""


def test_the_traced_benchmark_run_reports_every_layer(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT), str(tmp_path / "spans.jsonl")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
