"""The benchmark's self-tests, run with the suite.

``bench/selftest.py`` installs the benchmark's tracer on the library and
checks that every traced name is restored, so deleting or renaming a traced
function fails here rather than at the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
