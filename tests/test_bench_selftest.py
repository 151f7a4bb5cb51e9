"""The benchmark harness's self-test, run as part of the suite so that a
change to the package that breaks the harness (for example a renamed method
that ``bench/tracer.py`` wraps) fails here rather than at benchmark time."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
