"""Traced benchmark runs end in a result line a strict JSON reader accepts.

A run's last stdout line is its result object.  ``json.dumps`` writes a
non-finite metric as ``NaN`` or ``Infinity``, which strict readers refuse,
and anything printed after the result hides it; both read as a run with
no result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("radial_corpus", "nonradial_corpus", "cold_deep")


def _refuse(word):
    raise ValueError(f"non-finite number {word} in the result line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_run_ends_in_a_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "hgbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["metrics"]
