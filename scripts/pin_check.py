"""Compute both pinned digests under several CPython versions and compare.

    python3 scripts/pin_check.py [PYTHON ...]

Each PYTHON (by default every CPython 3.10-3.13 under
$PYENV_ROOT/versions, ~/.pyenv/versions when PYENV_ROOT is unset) runs
in its own subprocess from the checkout this script belongs to. It
computes the `PINNED` digest of tests/test_trace_pin.py (run_once's bids,
prices and rates) and that of tests/test_oracle_pin.py (the oracle's
rates and objectives) with those modules' own cells and digest lines. An
interpreter without pytest or PyYAML gets them from a temporary directory
put first on its path: a stub `pytest` module, which is all the two test
modules need at import, and a copy of the pure-Python `yaml` package of
the interpreter that runs this script. The directory comes first on
every interpreter's path and the copy leaves out PyYAML's libyaml
extension (`.so`), so every interpreter parses the bundled cell with
`yaml.SafeLoader`, even one whose own PyYAML has libyaml; the test suite
covers `CSafeLoader`. It prints one line per interpreter with its two
digests and whether each equals the value pinned in its test
file, and exits 1 if the interpreters do not all print the same digests.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_STUB_PYTEST = "def fixture(*args, **kwargs):\n    return args[0] if args else (lambda f: f)\n"

# Run in the checkout with src, tests and the stubs on the path; prints
# the trace digest and the oracle digest.
_CHILD = """
import hashlib
from nura import bundled_scenario_path, centralized_solve, load_scenario, run_once
import test_oracle_pin, test_trace_pin

cells = test_trace_pin._cells(load_scenario(bundled_scenario_path()))

def digest(results, lines):
    out = hashlib.sha256()
    for result in results:
        for line in lines(result):
            out.update(line.encode() + b"\\n")
    return out.hexdigest()

print(digest((run_once(c, keep_trace=True) for c in cells), test_trace_pin._digest_lines),
      digest((centralized_solve(c.users, c.capacity) for c in cells), test_oracle_pin._digest_lines))
"""


def _interpreters() -> list[Path]:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    return sorted(versions.glob("3.1[0-3].*/bin/python3"),
                  key=lambda path: tuple(map(int, path.parents[1].name.split("."))))


def _stubs(directory: Path) -> None:
    (directory / "pytest.py").write_text(_STUB_PYTEST)
    try:
        import yaml
    except ImportError:  # then every interpreter must bring its own
        return
    shutil.copytree(Path(yaml.__file__).parent, directory / "yaml",
                    ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))


def _pinned(test_file: str) -> str:
    for line in (ROOT / "tests" / test_file).read_text().splitlines():
        if line.startswith("PINNED = "):
            return line.split('"')[1]
    raise SystemExit(f"no PINNED line in tests/{test_file}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("python", nargs="*", type=Path,
                        help="interpreters to run (default: CPython 3.10-3.13 under pyenv)")
    args = parser.parse_args(argv)
    interpreters = args.python or _interpreters()
    if not interpreters:
        parser.error("no interpreter given and none found under pyenv")
    pins = (_pinned("test_trace_pin.py"), _pinned("test_oracle_pin.py"))
    seen = set()
    with tempfile.TemporaryDirectory() as stubs:
        _stubs(Path(stubs))
        path = os.pathsep.join([stubs, str(ROOT / "src"), str(ROOT / "tests")])
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        for python in interpreters:
            done = subprocess.run([str(python), "-c", _CHILD], cwd=ROOT, env=env,
                                  capture_output=True, text=True)
            if done.returncode:
                print(f"{python}: failed\n{done.stderr}", file=sys.stderr)
                return 1
            digests = tuple(done.stdout.split())
            seen.add(digests)
            marks = ", ".join(f"{name} {digest} ({'pinned' if digest == pin else 'NOT pinned'})"
                              for name, digest, pin in zip(("trace", "oracle"), digests, pins))
            print(f"{python}: {marks}")
    if len(seen) > 1:
        print("the interpreters disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
