"""Outside-in benchmark of the Alonso et al. monitoring-stack simulator.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig3_std --seed 42 --seconds 30 --trace 0

Repeats the workload, each repetition in a fresh interpreter
(``perfbench/worker.py``) started one after another, until ``--seconds``
host seconds have passed (at least two rounds).  A round runs each of the
workload's seeds once: ``--seed`` itself, or ``seed * n + j`` for the
``n`` seeds of a workload whose cost depends on its seed.  Every
repetition's outputs are checked and all repetitions of one seed must
produce the same digest of simulated outputs.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones; both
take the median over each seed's repetitions, then the mean over seeds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each repetition is
one attempted operation.  Span files and the metrics stream go to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, List

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: No repetition starts after this many seconds, so a run ends well within
#: three minutes even when ``--seconds`` is large.
LAST_START_S = 120.0
#: A repetition still running this many seconds after the benchmark started
#: is killed and counted as failed.
HARD_LIMIT_S = 170.0
MIN_ROUNDS = 2
#: Probe-unit time that defines reference host speed (see ``worker.SpeedProbe``).
PROBE_UNIT_S = 250e-6

END_TO_END_UNITS = {"sim_req_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us_p50", "_us_p99")):
        return "us"
    if name.endswith(("_ratio", "_per_epoch", "_per_request")) or name.startswith("share."):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def run_repetition(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; a crash becomes a failure."""
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(traced)), "--out", OUT_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition exceeded {timeout:.0f} s and was killed"], "digest": None}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit code {done.returncode}"]
        return {"failures": [f"worker failed: {tail[0]}"], "digest": None}
    return json.loads(lines[-1])


def reference_seconds(rep: dict, phase: str, seconds: float) -> float:
    """Host seconds of ``phase`` rescaled to a host whose probe unit takes
    :data:`PROBE_UNIT_S` (the worker's probe measured the actual speed)."""
    return seconds * PROBE_UNIT_S / rep[f"{phase}_unit_s"]


def combine(reps: List[dict], value: Callable[[dict], float]) -> float:
    """Mean over seeds of the median of ``value`` over each seed's repetitions."""
    by_seed: Dict[int, List[float]] = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(value(rep))
    return statistics.fmean(statistics.median(values) for values in by_seed.values())


def end_to_end_metrics(reps: List[dict]) -> Dict[str, float]:
    return {
        "sim_req_per_s": combine(
            reps, lambda rep: rep["issued"] / reference_seconds(rep, "run", rep["run_s"])),
        "setup_s": combine(
            reps, lambda rep: reference_seconds(rep, "setup", rep["import_s"] + rep["build_s"])),
        "peak_rss_mb": combine(reps, lambda rep: rep["rss_mb"]),
    }


def per_layer_metrics(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Span metrics of the traced repetitions, in plain host seconds; the
    ``setup.*`` split and ``sim.events_per_s`` are speed-corrected like the
    end-to-end metrics they break down."""
    metrics = {
        "sim.events": combine(traced, lambda rep: rep["events"]),
        "sim.events_per_s": combine(
            untraced, lambda rep: rep["events"] / reference_seconds(rep, "run", rep["run_s"])),
    }
    for name in traced[0]["layers"]:
        metrics[name] = combine(traced, lambda rep: rep["layers"][name])
    del metrics["trace.attributed_s"]
    metrics.update({
        "obs.stream_bytes": combine(traced, lambda rep: rep["stream_bytes"]),
        "setup.import_s": combine(
            untraced, lambda rep: reference_seconds(rep, "setup", rep["import_s"])),
        "setup.build_s": combine(
            untraced, lambda rep: reference_seconds(rep, "setup", rep["build_s"])),
        "trace.overhead_ratio": (combine(traced, lambda rep: rep["run_s"])
                                 / combine(untraced, lambda rep: rep["run_s"])),
        "trace.unattributed_s": combine(
            traced, lambda rep: rep["run_s"] - rep["layers"]["trace.attributed_s"]),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "experiments", "runner.py")):
        print(f"no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    started = perf_counter()
    count = WORKLOADS[args.workload].seeds
    seeds = [args.seed * count + j for j in range(count)] if count > 1 else [args.seed]
    modes = (False, True) if args.trace else (False,)
    reps: Dict[bool, List[dict]] = {False: [], True: []}
    failed = rounds = 0
    digests: Dict[int, set] = {seed: set() for seed in seeds}
    while True:
        elapsed = perf_counter() - started
        enough = rounds >= (1 if args.trace else MIN_ROUNDS)
        if (enough and elapsed >= args.seconds) or elapsed >= LAST_START_S:
            break
        rounds += 1
        for seed in seeds:
            for traced in modes:
                rep = run_repetition(args.workload, seed, traced,
                                     HARD_LIMIT_S - (perf_counter() - started))
                rep["seed"] = seed
                if rep["digest"] is not None:
                    digests[seed].add(rep["digest"])
                if rep["failures"]:
                    failed += 1
                    for failure in rep["failures"]:
                        print(f"FAILED (seed {seed}, {'traced' if traced else 'untraced'}): {failure}")
                else:
                    reps[traced].append(rep)
    attempted = len(reps[False]) + len(reps[True]) + failed
    for seed, seen in digests.items():
        if len(seen) > 1:
            print(f"FAILED: {len(seen)} different digests across repetitions of seed {seed}")
            failed = attempted

    metrics: Dict[str, Dict[str, object]] = {}
    if reps[False] and (reps[True] or not args.trace):
        values = (per_layer_metrics(reps[False], reps[True]) if args.trace
                  else end_to_end_metrics(reps[False]))
        units = {name: layer_unit(name) for name in values} if args.trace else END_TO_END_UNITS
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for seed, seen in digests.items():
        print(f"digest {args.workload} seed={seed}: {' '.join(sorted(seen))}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
