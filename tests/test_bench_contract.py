"""The benchmark's self-test, run from the root of the checkout: it traces a
small verify through the names ``perfbench/tracing.py`` wraps, so renaming
one of them fails here.  Also the verdict ``tests/bench_pairs.py`` prints."""

import subprocess
import sys
from pathlib import Path

import pytest

from bench_pairs import verdict

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


PARENT = [1.0, 0.98, 1.02, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]  # IQR/median 0.025


@pytest.mark.parametrize(
    "change,better,bound,expected",
    [
        ([x * 0.9 for x in PARENT], "lower", 0.25, (0.9, "better")),
        ([x * 1.1 for x in PARENT], "lower", 0.25, (1.1, "within bound")),
        ([x * 1.3 for x in PARENT], "lower", 0.25, (1.3, "worse beyond bound")),
        ([x * 0.9 for x in PARENT], "higher", 0.25, (0.9, "within bound")),
        ([x * 0.7 for x in PARENT], "higher", 0.25, (0.7, "worse beyond bound")),
        ([x * 1.1 for x in PARENT], "higher", 0.25, (1.1, "better")),
        ([x * 1.1 for x in PARENT], "lower", 0.01, (1.1, "unresolved")),
        ([0.5] * 10, "lower", 0.01, (0.5, "better")),  # beats every parent run
        ([0.5] * 9 + [0.98], "lower", 0.01, (0.5, "unresolved")),
        ([1.1] * 10, "lower", 0.01, (1.1, "unresolved")),
    ],
)
def test_bench_pairs_verdict(change, better, bound, expected):
    ratio, word = verdict(PARENT, change, better, bound)
    assert (round(ratio, 6), word) == expected
