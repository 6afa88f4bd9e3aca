"""The benchmark's golden check as a test: every committed output under
bench/golden/ (figures 9, searches 28, cli 15, scan 700) matches the program.
The scan golden is the only one that runs `dual_no_pa`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_check_matches_every_golden_file():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "check: all outputs match" in done.stdout
