"""The benchmark's correctness gate runs against the current library API.

``perfbench/selftest.py`` drives the real pipelines on tiny inputs and checks
that planted wrong answers are flagged; an API change that breaks the
benchmark fails here instead of only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
