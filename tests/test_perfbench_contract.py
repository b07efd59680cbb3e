"""The benchmark's traced run still works against the library.

The traced run reads library internals that no other test pins, such as
the parameter names of ``AggParams.parameters()`` and the arguments of
``graphs.build_prior``; a change that breaks them fails here, not only in
the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_train_small_run_is_correct():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small", "--seed", "0",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
