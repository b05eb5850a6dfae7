"""The benchmark's own smoke test passes: every workload runs untraced and
traced and reports its metrics. A change that breaks a name the benchmark
wraps or calls fails here, not only when the benchmark is run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_exits_zero():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
