"""Short-mode test of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs one traced round (one untraced and one traced pass
of its operations, every output checked) twice. The test asserts that
every check passed and that the call counts of the two traced runs are
identical. It takes about two minutes on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNT_SUFFIXES = (".calls", ".raised", ".objective_calls")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["loss-scan", "finite-boundary", "pointwise"])
def test_workload_checks_pass_and_counts_repeat(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    for result in (first, second):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 2
        assert "trace.overhead_s" in result["metrics"]
    counts = {name: m["value"] for name, m in first["metrics"].items() if name.endswith(COUNT_SUFFIXES)}
    assert counts == {
        name: m["value"] for name, m in second["metrics"].items() if name.endswith(COUNT_SUFFIXES)
    }
    assert sum(counts.values()) > 0
