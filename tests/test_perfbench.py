"""The benchmark harness's self-test, run with the suite.

It runs every benchmark workload at a tiny size through the real command
line, untraced and traced, and fails when an answer is rejected, when the
layer times do not add up, or when a trace target in perfbench/layers.py no
longer exists in aspkit (which would silently zero that layer's metric).
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
