"""The benchmark's own tests (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from worker import measure  # noqa: E402

#: Shortest length (fraction of the measured run) at which every check holds.
MINIMAL_LENGTH = {"fig3_std": 0.2, "fig5_tiny": 0.25, "fleet_ops": 0.5}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return json.load(spec)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(MINIMAL_LENGTH))
def test_tracer_has_zero_effect(workload, tmp_path):
    length = MINIMAL_LENGTH[workload]
    untraced = measure(workload, 42, False, str(tmp_path), length=length)
    traced = measure(workload, 42, True, str(tmp_path), length=length)
    assert untraced["failures"] == [] and traced["failures"] == []
    assert traced["digest"] == untraced["digest"]
    assert traced["layers"]["container.requests"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, section):
    done = _run("--workload", "fig5_tiny", "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in _benchmark()[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _benchmark()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fig3_std", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
