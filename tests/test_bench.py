"""The benchmark under bench/ drives the package through its public names;
its own self-check must keep passing as the package changes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selfcheck.py")],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selfcheck passed" in proc.stdout
