"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (``run.py`` starts it; it can also be run by hand)::

    python3 perfbench/worker.py --workload fig5_tiny --seed 42 --trace 0 --out .perfbench_out

Prints one JSON object: set-up and run-phase host seconds, simulated
requests issued, discrete events, peak RSS, failed output checks, the digest
of the simulated outputs and, when traced, the per-layer span metrics.

Set-up is the import of ``repro.experiments.runner`` plus, for every leg,
``run_experiment`` up to the moment ``WorkloadGenerator.run`` starts the
simulation (``build_cluster``'s DB population and deployment, monitoring
install and weaving, fault injection).  The run phase is from there to the
returned ``ExperimentResult``.

Untraced repetitions also run a :class:`SpeedProbe`: a timer signal
interrupts the program every :data:`PROBE_PERIOD_S` and times a fixed unit
of interpreter work on the same core.  Each phase reports its host seconds
net of the probe and the mean probe time, so ``run.py`` can correct for the
host's speed at the moment the phase ran.
"""

import signal
from time import perf_counter

PROBE_PERIOD_S = 0.02


def _probe_unit() -> int:
    """Fixed interpreter work: dict and list traffic in a small loop."""
    table, items, total = {}, [], 0
    for i in range(1500):
        table[i & 255] = i
        items.append(table.get(i >> 1, 0))
        total += len(items) & 7
    return total


class SpeedProbe:
    """Times :func:`_probe_unit` from a ``SIGALRM`` handler while running."""

    def __init__(self) -> None:
        self.samples = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        _probe_unit()
        self.samples.append(perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def net_seconds(self, intervals):
        """Wall seconds of ``(first sample, end sample, wall seconds)`` intervals
        minus the probe time inside them, and the mean probe unit time there."""
        taken = [t for first, last, _ in intervals for t in self.samples[first:last]]
        wall = sum(seconds for _, _, seconds in intervals)
        return wall - sum(taken), (sum(taken) / len(taken) if taken else None)


IMPORT_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)


def measure(workload: str, seed: int, trace: bool, out_dir: str, length: float = 1.0,
            probe: "SpeedProbe | None" = None) -> dict:
    """Run every leg of ``workload`` once and return the repetition's record.

    Phase seconds are net of the probe's own time; ``*_unit_s`` is the mean
    probe unit time during that phase (``None`` without a probe).
    """
    probe = probe or SpeedProbe()
    import repro.experiments.runner as runner

    setup = [(0, len(probe.samples), perf_counter() - IMPORT_START)]
    from repro.tpcw.workload import WorkloadGenerator
    from tracer import RUN, SETUP, Tracer
    from workloads import WORKLOADS, digest

    spec = WORKLOADS[workload]
    configs = spec.build(seed, out_dir, length)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    run_entries = []
    simulate = WorkloadGenerator.run

    def mark_run_phase(generator, duration):
        run_entries.append((perf_counter(), len(probe.samples)))
        if tracer is not None:
            tracer.phase = RUN
        return simulate(generator, duration)

    WorkloadGenerator.run = mark_run_phase
    record = {"issued": 0, "events": 0, "stream_bytes": 0, "failures": [], "digest": None}
    run = []
    results = []
    try:
        for config in configs:
            if tracer is not None:
                tracer.phase = SETUP
            started, first = perf_counter(), len(probe.samples)
            result = runner.run_experiment(config)
            finished, last = perf_counter(), len(probe.samples)
            entered, entered_index = run_entries[-1]
            setup.append((first, entered_index, entered - started))
            run.append((entered_index, last, finished - entered))
            record["issued"] += result.issued_requests
            record["events"] += result.executed_events
            if config.stream_metrics is not None:
                record["stream_bytes"] += os.path.getsize(config.stream_metrics)
            results.append(result)
    except Exception:  # a program error fails this repetition, not the benchmark
        record["failures"].append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        WorkloadGenerator.run = simulate
        if tracer is not None:
            tracer.uninstall()
        probe.stop()
    if not record["failures"]:
        record["failures"] = spec.check(results)
        record["digest"] = digest(results)
        record["import_s"], _ = probe.net_seconds(setup[:1])
        record["build_s"], _ = probe.net_seconds(setup[1:])
        _, record["setup_unit_s"] = probe.net_seconds(setup)
        record["run_s"], record["run_unit_s"] = probe.net_seconds(run)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.tsv"))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for the stream and span files")
    args = parser.parse_args()
    probe = SpeedProbe()
    if not args.trace:  # traced repetitions time their spans unperturbed
        probe.start()
    print(json.dumps(measure(args.workload, args.seed, bool(args.trace), args.out, probe=probe)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
