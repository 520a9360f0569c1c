"""The benchmark's workloads: experiment configs, output checks and digests.

Each workload is a list of :class:`~repro.experiments.runner.ExperimentConfig`
legs built here from the seed, run one after another through
``run_experiment``.  After the legs ran, the workload's ``check`` returns
the failed output checks (empty when the run is correct) and :func:`digest`
hashes the simulated outputs, so two runs of one seed can be compared
bit for bit.

Importing this module imports nothing from ``repro``: the worker times that
import itself (it is part of the set-up users pay on every call).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Callable, Dict, List, NamedTuple

#: The Fig. 5 leak targets (A, B, C, D), as in ``repro.experiments.scenarios``.
COMPONENT_A = "product_detail"
COMPONENT_B = "home"
COMPONENT_C = "new_products"
COMPONENT_D = "admin_confirm"

KB = 1024
MB = 1024 * KB

#: Fig. 3 is run at this fraction of the paper's 62-minute schedule.
FIG3_DURATION_SCALE = 0.05
#: Simulated seconds of the Fig. 5 leak hunt.
FIG5_DURATION = 1200.0
#: Simulated seconds of the fleet workload.
FLEET_DURATION = 360.0
FLEET_SHARDS = 4


class Workload(NamedTuple):
    """One benchmark workload."""

    #: ``build(seed, out_dir, length)`` -> the experiment legs, run in order;
    #: ``length`` multiplies every simulated duration (1.0 in measured runs).
    build: Callable[[int, str, float], list]
    #: ``check(results)`` -> failed checks (empty when outputs are correct).
    check: Callable[[list], List[str]]
    #: Seeds one benchmark run averages over.  More than one where the cost
    #: of a request depends on the seed beyond host noise.
    seeds: int = 1


# --------------------------------------------------------------------------- #
# fig3_std: the paper's Fig. 3 pair at the standard population
# --------------------------------------------------------------------------- #
def build_fig3_std(seed: int, out_dir: str, length: float = 1.0) -> list:
    from repro.experiments.runner import ExperimentConfig
    from repro.tpcw.population import PopulationScale
    from repro.tpcw.workload import WorkloadPhase

    warmup = 120.0 * FIG3_DURATION_SCALE * length
    phase = 1800.0 * FIG3_DURATION_SCALE * length
    mid_end, duration = warmup + phase, warmup + 2 * phase
    common = dict(
        seed=seed,
        scale=PopulationScale.standard(),
        phases=[
            WorkloadPhase(0.0, 50),
            WorkloadPhase(warmup, 100),
            WorkloadPhase(mid_end, 200),
        ],
        duration=duration,
        mix_name="shopping",
        snapshot_interval=max(30.0, 60.0 * FIG3_DURATION_SCALE),
    )
    return [
        ExperimentConfig(name="fig3-unmonitored", monitored=False, **common),
        ExperimentConfig(name="fig3-monitored", monitored=True, **common),
    ]


def check_fig3_std(results: list) -> List[str]:
    # Simulated throughput penalty of the monitored leg after warm-up (%).
    unmonitored, monitored = results
    start = unmonitored.config.phases[1].start_time
    reference = unmonitored.mean_throughput(start)
    overhead = 100.0 * (reference - monitored.mean_throughput(start)) / reference
    if not 0.0 < overhead < 5.0:
        return [f"monitoring overhead {overhead:.3f} % is outside (0, 5) %"]
    return []


# --------------------------------------------------------------------------- #
# fig5_tiny: the Fig. 5 four-leak hunt at the tiny population
# --------------------------------------------------------------------------- #
def build_fig5_tiny(seed: int, out_dir: str, length: float = 1.0) -> list:
    from repro.experiments.runner import ExperimentConfig
    from repro.faults.injector import FaultSpec
    from repro.tpcw.population import PopulationScale

    faults = [
        FaultSpec(
            component=component,
            kind="memory-leak",
            params={"leak_bytes": 100 * KB, "period_n": 100},
        )
        for component in (COMPONENT_A, COMPONENT_B, COMPONENT_C, COMPONENT_D)
    ]
    return [
        ExperimentConfig(
            name="fig5-tiny",
            seed=seed,
            scale=PopulationScale.tiny(),
            constant_ebs=100,
            duration=FIG5_DURATION * length,
            mix_name="shopping",
            monitored=True,
            faults=faults,
            snapshot_interval=10.0,
        )
    ]


def check_fig5_tiny(results: list) -> List[str]:
    (result,) = results
    failures = []
    ranking = result.root_cause.ranking()
    if set(ranking[:2]) != {COMPONENT_A, COMPONENT_B} or ranking[2] != COMPONENT_C:
        failures.append(f"root-cause ranking {ranking[:4]} is not A, B (any order), C")
    # D is visited so rarely (about 30 times in 1200 s) that its random
    # countdown fires 0-2 times, so "flat" is judged against C's growth
    # (18-27 leaks over seeds 1-20) rather than as exactly zero.
    growth = result.component_growth()
    if not growth[COMPONENT_D] <= growth[COMPONENT_C] / 4:
        failures.append(
            f"component D grew {growth[COMPONENT_D]:.0f} B, over a quarter of C's "
            f"{growth[COMPONENT_C]:.0f} B"
        )
    return failures


# --------------------------------------------------------------------------- #
# fleet_ops: sharded hybrid fleet with rollout, rejuvenation and obs
# --------------------------------------------------------------------------- #
def build_fleet_ops(seed: int, out_dir: str, length: float = 1.0) -> list:
    from repro.container.server import ServerConfig
    from repro.experiments.deploy import ComponentVersion, RolloutPlan
    from repro.experiments.runner import ExperimentConfig
    from repro.faults.injector import FaultSpec
    from repro.obs.registry import MetricsRegistry
    from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
    from repro.slo.predictors import TheilSenPredictor
    from repro.tpcw.population import PopulationScale

    duration = FLEET_DURATION * length
    leaky_v2 = ComponentVersion(
        component=COMPONENT_A,
        version="v2-leaky",
        faults=(
            FaultSpec(
                component=COMPONENT_A,
                kind="memory-leak",
                params={"leak_bytes": 128 * KB, "period_n": 2},
            ),
        ),
    )
    rollout = RolloutPlan(
        version=leaky_v2,
        start_time=0.25 * duration,
        stage_bake_seconds=0.15 * duration,
        stagger_seconds=0.05 * duration,
        deploy_downtime_seconds=2.0,
        alert_rollback=True,
    )
    policy = AdaptiveRejuvenationPolicy(
        predictor_factory=lambda: TheilSenPredictor(min_samples=4),
        base_horizon=duration / 4.0,
        min_horizon=duration / 16.0,
        max_horizon=duration,
        microreboot_downtime=2.0,
    )
    return [
        ExperimentConfig(
            name="fleet-ops",
            seed=seed,
            scale=PopulationScale.tiny(),
            constant_ebs=4000,
            duration=duration,
            mix_name="ordering",
            monitored=True,
            faults=[
                FaultSpec(
                    component=COMPONENT_B,
                    kind="thread-leak",
                    params={"period_n": 10, "stack_bytes": 256 * KB},
                )
            ],
            snapshot_interval=10.0,
            server_config=ServerConfig(heap_bytes=512 * MB, thread_capacity=700),
            shards=FLEET_SHARDS,
            shard_db_mode="replica",
            rollout=rollout,
            alert_growth_bytes=2 * MB,
            rejuvenation=policy,
            rejuvenation_channels=["threads"],
            fleet_rejuvenation="rolling",
            metrics_registry=MetricsRegistry(),
            stream_metrics=os.path.join(out_dir, "fleet_ops-stream.jsonl"),
            simulation_mode="hybrid",
            tracer_fraction=0.05,
        )
    ]


def check_fleet_ops(results: list) -> List[str]:
    (result,) = results
    failures = []
    report = result.rollout
    if not report.rolled_back:
        failures.append("the leaky rollout was not rolled back")
    first_rung = report.ladder[0]
    if report.max_concurrent_deploys() > first_rung:
        failures.append(
            f"blast radius {report.max_concurrent_deploys()} exceeds the first rung {first_rung}"
        )
    with open(result.config.stream_metrics, encoding="utf-8") as stream:
        last = json.loads(stream.read().splitlines()[-1])
    if last["counters"] != result.accounting:
        failures.append(
            f"last stream record {last['counters']} != post-hoc ledger {result.accounting}"
        )
    if result.error_count:
        failures.append(f"{result.error_count} requests errored")
    return failures


WORKLOADS: Dict[str, Workload] = {
    # Standard-population DB costs are heavy-tailed and follow the seeded
    # population: single seeds differ by up to 15 % in host cost per request.
    "fig3_std": Workload(build_fig3_std, check_fig3_std, seeds=4),
    "fig5_tiny": Workload(build_fig5_tiny, check_fig5_tiny),
    "fleet_ops": Workload(build_fleet_ops, check_fleet_ops),
}


# --------------------------------------------------------------------------- #
# Digest of the simulated outputs
# --------------------------------------------------------------------------- #
def _plain(value: Any) -> Any:
    """JSON-ready form of report objects (floats keep every digit)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def simulated_outputs(result) -> Dict[str, Any]:
    """The simulated outputs of one leg that the digest covers."""
    root_cause = result.root_cause
    fleet = result.fleet
    return {
        "accounting": result.accounting,
        "executed_events": result.executed_events,
        "interaction_counts": result.interaction_counts,
        "throughput": [result.throughput.times, result.throughput.values],
        "ranking": root_cause.to_rows() if root_cause is not None else None,
        "rollout_events": result.rollout.events if result.rollout is not None else None,
        "rejuvenation": result.rejuvenation,
        "fleet_rejuvenation": fleet.rejuvenation if fleet is not None else None,
        "fluid": result.fluid,
    }


def digest(results: list) -> str:
    """SHA-256 of every leg's simulated outputs, in leg order."""
    payload = json.dumps(
        _plain([simulated_outputs(result) for result in results]),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
