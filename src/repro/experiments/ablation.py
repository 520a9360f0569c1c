"""Manifest-driven ablation matrix: policy × fault × mechanism × seed.

``repro ablate`` runs the full cross product a manifest describes, scores
every cell with the SLA cost model, and emits three ranked reports:

* **mechanism importance** — how much SLA cost each resilience mechanism
  removes versus the baseline mechanism, averaged over matching
  (policy, fault, seed) cells and ranked descending (the classic
  ablate-one reading: big positive delta = the mechanism carries weight);
* **policy regret** — per policy, the mean excess SLA cost over the best
  policy of each (fault, mechanism, seed) cell, ranked ascending;
* **fault severity** — mean SLA cost per fault, ranked descending.

Artifacts are written as JSON + CSV + Markdown under
``benchmarks/results/ablation_<name>.*``.  Everything is deterministic for
a fixed manifest + seed — keys sorted, fixed column order, fixed float
formatting, no wall-clock timestamps — so regenerated artifacts are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.rejuvenation import (
    ProactiveRejuvenationPolicy,
    RejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
)
from repro.container.resilience import ResilienceConfig
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scenarios import (
    RETRY_STORM_TIMEOUT_SECONDS,
    ZOO_FAULT_KINDS,
    ModeComparison,
    zoo_fault_spec,
)
from repro.faults.injector import FaultSpec
from repro.tpcw.mixes import PAGE_PRIORITIES
from repro.tpcw.population import PopulationScale

#: Default EB population of a matrix cell (kept small: the matrix multiplies).
ABLATION_EBS = 30

#: Injection countdown used by every matrix fault.
ABLATION_PERIOD_N = 10


def _memory_leak_spec(period_n: int) -> FaultSpec:
    from repro.experiments.scenarios import (
        COMPONENT_A,
        REJUVENATION_LEAK_BYTES,
    )

    return FaultSpec(
        component=COMPONENT_A,
        kind="memory-leak",
        params={"leak_bytes": REJUVENATION_LEAK_BYTES, "period_n": period_n},
    )


#: Fault registry: name -> FaultSpec builder (period_n -> spec).
FAULTS: Dict[str, Callable[[int], FaultSpec]] = {
    "memory-leak": _memory_leak_spec,
    **{
        kind: (lambda period_n, kind=kind: zoo_fault_spec(kind, period_n=period_n))
        for kind in ZOO_FAULT_KINDS
    },
}

#: Mechanism registry: name -> ResilienceConfig builder (timeout -> config).
MECHANISMS: Dict[str, Callable[[float], Optional[ResilienceConfig]]] = {
    "none": lambda timeout: None,
    "naive-retry": lambda timeout: ResilienceConfig.naive_retries(
        timeout_seconds=timeout
    ),
    "backoff": lambda timeout: ResilienceConfig.backoff_retries(
        timeout_seconds=timeout
    ),
    "backoff-breaker": lambda timeout: ResilienceConfig.backoff_with_breaker(
        timeout_seconds=timeout
    ),
    "full": lambda timeout: ResilienceConfig.full(
        timeout_seconds=timeout, priorities=dict(PAGE_PRIORITIES)
    ),
}

#: Policy registry: name -> (duration -> rejuvenation policy or ``None``).
#: ``None`` means no controller (and the run skips monitoring entirely).
POLICIES: Dict[str, Callable[[float], Optional[RejuvenationPolicy]]] = {
    "no-action": lambda duration: None,
    "time-based": lambda duration: TimeBasedRejuvenationPolicy(
        interval=duration / 3.0, restart_downtime=max(0.5, duration / 90.0)
    ),
    "proactive-microreboot": lambda duration: ProactiveRejuvenationPolicy(
        horizon=duration / 4.0,
        microreboot_downtime=max(0.25, duration / 1800.0),
        min_samples=4,
    ),
}


@dataclass
class AblationManifest:
    """Declarative description of one ablation matrix."""

    name: str = "default"
    policies: List[str] = field(default_factory=lambda: ["no-action"])
    faults: List[str] = field(
        default_factory=lambda: ["slow-downstream", "lock-convoy", "cache-stampede"]
    )
    mechanisms: List[str] = field(
        default_factory=lambda: ["none", "naive-retry", "backoff", "backoff-breaker"]
    )
    seeds: List[int] = field(default_factory=lambda: [42])
    duration_scale: float = 0.05
    ebs: int = ABLATION_EBS
    period_n: int = ABLATION_PERIOD_N
    timeout_seconds: float = RETRY_STORM_TIMEOUT_SECONDS
    tiny: bool = True

    def __post_init__(self) -> None:
        for label, chosen, registry in (
            ("policy", self.policies, POLICIES),
            ("fault", self.faults, FAULTS),
            ("mechanism", self.mechanisms, MECHANISMS),
        ):
            if not chosen:
                raise ValueError(f"manifest needs at least one {label}")
            unknown = sorted(set(chosen) - set(registry))
            if unknown:
                raise ValueError(
                    f"unknown {label}(s) {unknown} (known {label}s: {sorted(registry)})"
                )
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        if self.duration_scale <= 0:
            raise ValueError(
                f"duration_scale must be positive, got {self.duration_scale}"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AblationManifest":
        """Build a manifest from a parsed JSON object (unknown keys rejected)."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown manifest key(s) {unknown} (known keys: {sorted(known)})"
            )
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: str) -> "AblationManifest":
        """Load a manifest from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (embedded in the artifact for provenance)."""
        return {
            "name": self.name,
            "policies": list(self.policies),
            "faults": list(self.faults),
            "mechanisms": list(self.mechanisms),
            "seeds": list(self.seeds),
            "duration_scale": self.duration_scale,
            "ebs": self.ebs,
            "period_n": self.period_n,
            "timeout_seconds": self.timeout_seconds,
            "tiny": self.tiny,
        }

    def cell_count(self) -> int:
        """Total number of matrix cells."""
        return (
            len(self.policies) * len(self.faults) * len(self.mechanisms) * len(self.seeds)
        )


def smoke_manifest() -> AblationManifest:
    """The CI smoke matrix: 1 policy × 2 faults × 2 mechanisms × 1 seed."""
    return AblationManifest(
        name="smoke",
        policies=["no-action"],
        faults=["slow-downstream", "lock-convoy"],
        mechanisms=["naive-retry", "backoff-breaker"],
        seeds=[42],
        duration_scale=0.02,
        period_n=5,
        tiny=True,
    )


def default_manifest() -> AblationManifest:
    """The default matrix ``repro ablate`` runs without ``--manifest``."""
    return AblationManifest()


# --------------------------------------------------------------------------- #
# Running the matrix
# --------------------------------------------------------------------------- #
def run_cell(
    manifest: AblationManifest,
    policy: str,
    fault: str,
    mechanism: str,
    seed: int,
    duration_scale: Optional[float] = None,
) -> Dict[str, object]:
    """Run one matrix cell and return its report row."""
    scale_factor = (
        duration_scale if duration_scale is not None else manifest.duration_scale
    )
    duration = 3600.0 * scale_factor
    rejuvenation = POLICIES[policy](duration)
    resilience = MECHANISMS[mechanism](manifest.timeout_seconds)
    config = ExperimentConfig(
        name=f"ablate-{manifest.name}-{policy}-{fault}-{mechanism}-{seed}",
        seed=seed,
        scale=PopulationScale.tiny() if manifest.tiny else PopulationScale.standard(),
        constant_ebs=manifest.ebs,
        duration=duration,
        mix_name="shopping",
        monitored=rejuvenation is not None,
        collect_blackbox_samples=False,
        snapshot_interval=max(2.0, 30.0 * scale_factor),
        faults=[FAULTS[fault](manifest.period_n)],
        rejuvenation=rejuvenation,
        resilience=resilience,
    )
    result = run_experiment(config)
    result.deployment = None
    result.framework = None
    cell = ModeComparison(results={policy: result}, duration=duration)
    return {
        "policy": policy,
        "fault": fault,
        "mechanism": mechanism,
        "seed": seed,
        "sla_cost": cell.sla_cost(policy),
        "completed": result.completed_requests,
        "errors": result.error_count,
        "timeouts": result.client_timeouts,
        "retries": result.retry_attempts,
        "refused": result.refused_requests,
        "downtime_s": cell.downtime(policy),
    }


@dataclass
class AblationRunResult:
    """The executed matrix: raw cell rows plus the three ranked reports."""

    manifest: AblationManifest
    cells: List[Dict[str, object]]
    duration_scale: float

    def mechanism_importance(self) -> List[Dict[str, object]]:
        """SLA cost removed by each mechanism vs. the baseline, ranked desc.

        Baseline is ``"none"`` when the manifest includes it, else the first
        mechanism listed.  Importance of mechanism *m* is the mean of
        ``cost(baseline) - cost(m)`` over all (policy, fault, seed) cells.
        """
        baseline = (
            "none" if "none" in self.manifest.mechanisms else self.manifest.mechanisms[0]
        )
        by_key: Dict[Tuple[str, str, int], Dict[str, float]] = {}
        for cell in self.cells:
            key = (cell["policy"], cell["fault"], cell["seed"])
            by_key.setdefault(key, {})[cell["mechanism"]] = cell["sla_cost"]
        rows: List[Dict[str, object]] = []
        for mechanism in self.manifest.mechanisms:
            if mechanism == baseline:
                continue
            deltas = [
                costs[baseline] - costs[mechanism]
                for costs in by_key.values()
                if baseline in costs and mechanism in costs
            ]
            rows.append(
                {
                    "mechanism": mechanism,
                    "baseline": baseline,
                    "cells": len(deltas),
                    "mean_cost_removed": sum(deltas) / len(deltas) if deltas else 0.0,
                }
            )
        rows.sort(key=lambda row: (-row["mean_cost_removed"], row["mechanism"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return rows

    def policy_regret(self) -> List[Dict[str, object]]:
        """Mean excess SLA cost of each policy over the per-cell best policy,
        ranked ascending (rank 1 = the policy you would pick)."""
        by_key: Dict[Tuple[str, str, int], Dict[str, float]] = {}
        for cell in self.cells:
            key = (cell["fault"], cell["mechanism"], cell["seed"])
            by_key.setdefault(key, {})[cell["policy"]] = cell["sla_cost"]
        rows: List[Dict[str, object]] = []
        for policy in self.manifest.policies:
            regrets = [
                costs[policy] - min(costs.values())
                for costs in by_key.values()
                if policy in costs
            ]
            rows.append(
                {
                    "policy": policy,
                    "cells": len(regrets),
                    "mean_regret": sum(regrets) / len(regrets) if regrets else 0.0,
                }
            )
        rows.sort(key=lambda row: (row["mean_regret"], row["policy"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return rows

    def fault_severity(self) -> List[Dict[str, object]]:
        """Mean SLA cost per fault across all cells, ranked descending."""
        by_fault: Dict[str, List[float]] = {}
        for cell in self.cells:
            by_fault.setdefault(cell["fault"], []).append(cell["sla_cost"])
        rows = [
            {
                "fault": fault,
                "cells": len(costs),
                "mean_sla_cost": sum(costs) / len(costs),
            }
            for fault, costs in by_fault.items()
        ]
        rows.sort(key=lambda row: (-row["mean_sla_cost"], row["fault"]))
        for rank, row in enumerate(rows, start=1):
            row["rank"] = rank
        return rows

    def to_payload(self) -> Dict[str, object]:
        """The full JSON artifact payload (deterministic)."""
        return {
            "manifest": self.manifest.to_dict(),
            "duration_scale": self.duration_scale,
            "cells": self.cells,
            "mechanism_importance": self.mechanism_importance(),
            "policy_regret": self.policy_regret(),
            "fault_severity": self.fault_severity(),
        }


def _cell_coordinates(manifest: AblationManifest) -> List[Tuple[str, str, str, int]]:
    """The matrix cells in canonical (reporting) order."""
    return [
        (policy, fault, mechanism, seed)
        for policy in manifest.policies
        for fault in manifest.faults
        for mechanism in manifest.mechanisms
        for seed in manifest.seeds
    ]


def _run_cell_args(args: Tuple[AblationManifest, str, str, str, int, float]) -> Dict[str, object]:
    """Pool-friendly shim: one picklable tuple in, one cell row out."""
    manifest, policy, fault, mechanism, seed, scale_factor = args
    return run_cell(manifest, policy, fault, mechanism, seed, duration_scale=scale_factor)


def run_ablation(
    manifest: AblationManifest,
    duration_scale: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> AblationRunResult:
    """Run every cell of the manifest's matrix, in deterministic order.

    ``jobs > 1`` fans the cells out over a process pool.  Each cell is an
    independent simulation seeded from its own coordinates, and the pool's
    ``map`` returns results in submission order, so the merged reports are
    byte-identical to a serial run — parallelism only changes wall-clock.
    """
    scale_factor = (
        duration_scale if duration_scale is not None else manifest.duration_scale
    )
    coordinates = _cell_coordinates(manifest)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(coordinates) <= 1:
        cells: List[Dict[str, object]] = []
        for policy, fault, mechanism, seed in coordinates:
            if progress is not None:
                progress(f"{policy} × {fault} × {mechanism} × seed {seed}")
            cells.append(
                run_cell(
                    manifest,
                    policy,
                    fault,
                    mechanism,
                    seed,
                    duration_scale=scale_factor,
                )
            )
    else:
        from concurrent.futures import ProcessPoolExecutor

        if progress is not None:
            for policy, fault, mechanism, seed in coordinates:
                progress(f"{policy} × {fault} × {mechanism} × seed {seed}")
        work = [
            (manifest, policy, fault, mechanism, seed, scale_factor)
            for policy, fault, mechanism, seed in coordinates
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            cells = list(pool.map(_run_cell_args, work))
    return AblationRunResult(
        manifest=manifest, cells=cells, duration_scale=scale_factor
    )


# --------------------------------------------------------------------------- #
# Artifact writers (byte-identical for a fixed manifest + seed)
# --------------------------------------------------------------------------- #
_CSV_COLUMNS = [
    "policy",
    "fault",
    "mechanism",
    "seed",
    "sla_cost",
    "completed",
    "errors",
    "timeouts",
    "retries",
    "refused",
    "downtime_s",
]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _round_floats(obj: object) -> object:
    """Round every float to 6 decimals so JSON output is stable."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(item) for item in obj]
    return obj


def write_reports(result: AblationRunResult, out_dir: str) -> List[str]:
    """Write the JSON / CSV / Markdown artifacts; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"ablation_{result.manifest.name}"
    written: List[str] = []

    json_path = out / f"{stem}.json"
    payload = _round_floats(result.to_payload())
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(str(json_path))

    csv_path = out / f"{stem}.csv"
    lines = [",".join(_CSV_COLUMNS)]
    for cell in result.cells:
        lines.append(",".join(_fmt(cell[column]) for column in _CSV_COLUMNS))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(str(csv_path))

    md_path = out / f"{stem}.md"
    md_path.write_text(render_markdown(result), encoding="utf-8")
    written.append(str(md_path))
    return written


def _md_table(rows: List[Dict[str, object]], columns: List[str]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(column, "")) for column in columns) + " |")
    return "\n".join(lines)


def render_markdown(result: AblationRunResult) -> str:
    """The human-readable artifact (same numbers as the JSON)."""
    manifest = result.manifest
    lines = [
        f"# Ablation matrix: {manifest.name}",
        "",
        f"- policies: {', '.join(manifest.policies)}",
        f"- faults: {', '.join(manifest.faults)}",
        f"- mechanisms: {', '.join(manifest.mechanisms)}",
        f"- seeds: {', '.join(str(seed) for seed in manifest.seeds)}",
        f"- duration scale: {result.duration_scale:g} "
        f"(population: {'tiny' if manifest.tiny else 'standard'}, "
        f"{manifest.ebs} EBs, timeout {manifest.timeout_seconds:g} s)",
        f"- cells: {len(result.cells)}",
        "",
        "## Mechanism importance (SLA cost removed vs. baseline, ranked)",
        "",
        _md_table(
            result.mechanism_importance(),
            ["rank", "mechanism", "baseline", "cells", "mean_cost_removed"],
        ),
        "",
        "## Policy regret (mean excess SLA cost over per-cell best, ranked)",
        "",
        _md_table(result.policy_regret(), ["rank", "policy", "cells", "mean_regret"]),
        "",
        "## Fault severity (mean SLA cost, ranked)",
        "",
        _md_table(result.fault_severity(), ["rank", "fault", "cells", "mean_sla_cost"]),
        "",
        "## Cells",
        "",
        _md_table(result.cells, _CSV_COLUMNS),
        "",
    ]
    return "\n".join(lines)
