"""Smoke test of the benchmark itself: ``pytest perfbench/test_smoke.py``."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_prints_every_metric_and_counts_a_tampered_csv():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600,
                          cwd=RUN.parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")
    assert "tampered rerun: fail_ratio 1/2" in proc.stdout
