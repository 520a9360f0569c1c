"""Text reporting of experiment results and paper-vs-measured comparisons.

The benchmark harness prints these tables so that a run of
``pytest benchmarks/ --benchmark-only`` regenerates, in text form, the same
rows/series the paper's figures report.  ``EXPERIMENTS.md`` is written from
the same renderers.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    AdaptiveScenarioResult,
    CanaryScenarioResult,
    Fig3Result,
    FleetScenarioResult,
    LeakScenarioResult,
    LearningScenarioResult,
    MixedScenarioResult,
    RejuvenationScenarioResult,
    RetryStormResult,
    RolloutScenarioResult,
    ScaleScenarioResult,
    ZooResult,
)
from repro.sim.metrics import TimeSeries
from repro.slo.analytic import TTE_TOLERANCE_FACTOR


def format_table(rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None) -> str:
    """Render dict rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    lines = [
        "  ".join(str(column).ljust(widths[column]) for column in columns),
        "  ".join("-" * widths[column] for column in columns),
    ]
    for row in rows:
        lines.append("  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    """One cell of a machine-readable artifact.

    Floats are fixed to 6 decimal places (never ``repr`` — the artifact must
    not change bytes across Python versions); everything else is ``str``.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _artifact_columns(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]]
) -> List[str]:
    if columns is not None:
        return list(columns)
    keys = set()
    for row in rows:
        keys.update(row)
    return sorted(str(key) for key in keys)


def rows_to_markdown(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None
) -> str:
    """Render dict rows as a GitHub-flavored Markdown table.

    Column order defaults to the sorted union of row keys and floats are
    fixed to 6 decimal places, so the output is byte-stable per input —
    suitable for golden-snapshot tests and checked-in artifacts.
    """
    rows = list(rows)
    columns = _artifact_columns(rows, columns)
    if not columns:
        return "(no data)\n"
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_cell(row.get(column, "")) for column in columns) + " |"
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(
    rows: Sequence[Dict[str, object]], columns: Optional[List[str]] = None
) -> str:
    """Render dict rows as CSV with the same byte-stability discipline
    as :func:`rows_to_markdown` (sorted default columns, 6dp floats)."""
    rows = list(rows)
    columns = _artifact_columns(rows, columns)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(column, "")) for column in columns])
    return buffer.getvalue()


def summary_artifacts(rows: Sequence[Dict[str, object]]) -> Dict[str, str]:
    """A scenario's summary rows as ``{"markdown", "csv"}`` artifacts
    (byte-stable per seed)."""
    return {"markdown": rows_to_markdown(rows), "csv": rows_to_csv(rows)}


def downsample_series(series: TimeSeries, points: int = 20) -> List[Dict[str, float]]:
    """Reduce a series to ~``points`` rows for printing."""
    if len(series) == 0:
        return []
    times = series.times
    values = series.values
    stride = max(1, len(times) // points)
    return [
        {"time_s": round(float(times[index]), 1), "value": round(float(values[index]), 3)}
        for index in range(0, len(times), stride)
    ]


def kb(value: float) -> float:
    """Bytes to KB, rounded for reports."""
    return round(value / 1024.0, 1)


# --------------------------------------------------------------------------- #
# Fig. 3
# --------------------------------------------------------------------------- #
def fig3_report(result: Fig3Result) -> str:
    """Throughput curves and the overall overhead figure."""
    warmup_end = result.phase_times[0]
    mid_end = result.phase_times[1]
    end = result.phase_times[2]
    summary_rows = [
        {
            "phase": "100 EBs",
            "unmonitored_rps": round(result.unmonitored.mean_throughput(warmup_end, mid_end), 2),
            "monitored_rps": round(result.monitored.mean_throughput(warmup_end, mid_end), 2),
        },
        {
            "phase": "200 EBs",
            "unmonitored_rps": round(result.unmonitored.mean_throughput(mid_end, end), 2),
            "monitored_rps": round(result.monitored.mean_throughput(mid_end, end), 2),
        },
        {
            "phase": "overall (post warm-up)",
            "unmonitored_rps": round(result.unmonitored.mean_throughput(warmup_end, end), 2),
            "monitored_rps": round(result.monitored.mean_throughput(warmup_end, end), 2),
        },
    ]
    lines = [
        "== Fig. 3: TPC-W throughput, monitored vs. unmonitored ==",
        f"paper expectation: monitoring all components costs ≈5 % throughput",
        f"measured overhead (post warm-up): {result.overhead_percent():.2f} %",
        "",
        format_table(summary_rows),
        "",
        "throughput series (requests/s per window):",
        format_table(result.throughput_rows()[:40]),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Figs. 4, 5, 7
# --------------------------------------------------------------------------- #
def leak_scenario_report(
    scenario: LeakScenarioResult,
    title: str,
    expectation: str,
    components: Optional[List[str]] = None,
) -> str:
    """Per-component size trajectories, final growth and root-cause ranking."""
    growth = scenario.growth()
    focus = components or sorted(scenario.injected_components)
    growth_rows = [
        {
            "component": name,
            "injected_leak": scenario.injected_components.get(name, 0),
            "injections": _injection_count(scenario, name),
            "growth_kb": kb(growth.get(name, 0.0)),
        }
        for name in focus
    ]
    report = scenario.root_cause
    lines = [
        f"== {title} ==",
        f"paper expectation: {expectation}",
        "",
        "component growth:",
        format_table(growth_rows),
        "",
        "object-size trajectories (KB):",
        format_table(scenario.size_series_rows(focus, points=12)),
        "",
        "root-cause ranking "
        f"(strategy: {report.strategy}):",
        format_table(report.to_rows()[:6]),
    ]
    return "\n".join(lines)


def _injection_count(scenario: LeakScenarioResult, component: str) -> int:
    for description in scenario.result.fault_descriptions:
        if description.startswith(f"{component}:"):
            # description format: "<component>: memory-leak ... (injected K times, ...)"
            marker = "injected "
            index = description.find(marker)
            if index >= 0:
                tail = description[index + len(marker):]
                return int(tail.split()[0])
    return 0


# --------------------------------------------------------------------------- #
# Live rejuvenation comparison
# --------------------------------------------------------------------------- #
def rejuvenation_report(scenario: RejuvenationScenarioResult) -> str:
    """Per-policy availability summary and heap-occupancy curves."""
    lines = [
        "== Live rejuvenation: no action vs. full restarts vs. micro-reboots ==",
        "expectation: micro-reboots of the root-cause component buy the same "
        "heap protection as full restarts for a fraction of the downtime "
        "(Candea et al.'s micro-reboot argument)",
        f"heap capacity: {scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB, "
        f"run length: {scenario.duration:.0f} s, "
        f"leak: {', '.join(f'{component} ({size} B)' for component, size in scenario.injected_components.items())}",
        "",
        "per-policy availability:",
        format_table(scenario.summary_rows()),
        "",
        "heap occupancy curves (MB):",
        format_table(scenario.heap_rows(points=12)),
    ]
    events = []
    for name, result in scenario.results.items():
        if result.rejuvenation is None:
            continue
        for event in result.rejuvenation.events:
            events.append(
                {
                    "policy": name,
                    "time_s": round(event.time, 1),
                    "action": event.kind,
                    "component": event.component or "(whole server)",
                    "downtime_s": round(event.downtime_seconds, 2),
                    "reclaimed_kb": round(event.reclaimed_bytes / 1024.0, 1),
                    "reason": event.reason,
                }
            )
    if events:
        lines += ["", "executed actions:", format_table(events)]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Fleet rejuvenation comparison
# --------------------------------------------------------------------------- #
def fleet_report(scenario: FleetScenarioResult) -> str:
    """Per-mode fleet availability, routing and cross-shard aging tables."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    lines = [
        f"== Fleet rejuvenation at {scenario.shards} shards: "
        "rolling vs. simultaneous vs. no action ==",
        "expectation: rolling recycles keep aggregate capacity at "
        f"{scenario.sla_floor:.0%} or better (one shard down at a time, sticky "
        "sessions failing over to the survivors), simultaneous restarts park "
        "the whole fleet below the SLA floor, and no action runs every "
        "shard's heap into the wall — rolling wins on fleet SLA cost",
        f"per-shard heap capacity: {scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB, "
        f"run length: {scenario.duration:.0f} s, "
        f"SLA capacity floor: {scenario.sla_floor:.0%}",
        "",
        "per-mode fleet availability and SLA cost:",
        format_table(scenario.summary_rows()),
    ]
    rolling_fleet = scenario.results["rolling"].fleet
    if rolling_fleet is not None and rolling_fleet.rejuvenation is not None:
        windows = [
            {
                "shard": shard,
                "outage_start_s": round(start, 1),
                "outage_end_s": round(end, 1),
            }
            for shard, start, end in rolling_fleet.rejuvenation.windows
        ]
        lines += ["", "rolling recycle schedule (one shard at a time):", format_table(windows)]
    lines += [
        "",
        "cross-shard aging (fleet manager, no-action run; fastest-aging first):",
        format_table(scenario.root_cause_rows()),
    ]
    balancer_rows = []
    for mode, result in scenario.results.items():
        fleet = result.fleet
        if fleet is None:
            continue
        balancer_rows.append(
            {
                "mode": mode,
                "policy": fleet.balancer["policy"],
                "routed": "/".join(str(count) for count in fleet.balancer["routed"]),
                "failovers": fleet.balancer["failovers"],
                "sticky_bindings": fleet.balancer["sticky_bindings"],
                "issued": fleet.ledger["issued"],
                "served": fleet.ledger["served"],
            }
        )
    lines += ["", "balancer routing and fleet ledger (served == issued):", format_table(balancer_rows)]
    rolling = round(scenario.sla_cost("rolling"), 1)
    lines += [
        "",
        format_table(
            [
                {
                    "claim": "rolling SLA cost < simultaneous and < no-action",
                    "rolling": rolling,
                    "simultaneous": round(scenario.sla_cost("simultaneous"), 1),
                    "no_action": round(scenario.sla_cost("no-action"), 1),
                    "holds": scenario.rolling_wins(),
                }
            ]
        ),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Canary deployment comparison
# --------------------------------------------------------------------------- #
def canary_report(scenario: CanaryScenarioResult) -> str:
    """Per-strategy rollout outcome, canary verdict and the SLA-cost claim."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    lines = [
        f"== Canary deployment at {scenario.shards} shards: "
        "no-deploy vs. canary+rollback vs. blind rollout ==",
        f"expectation: the '{scenario.version}' build of {scenario.component} "
        "leaks; the canary strategy catches the leak from the observability "
        "plane's shard-level object-size series during the bake window and "
        "rolls back before any other shard is exposed, while the blind "
        "rollout ships the leak fleet-wide — canary wins on fleet SLA cost",
        f"per-shard heap capacity: {scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB, "
        f"run length: {scenario.duration:.0f} s",
        "",
        "per-strategy rollout outcome and SLA cost:",
        format_table(scenario.summary_rows()),
    ]
    events = []
    for mode in ("canary", "blind"):
        rollout = scenario.results[mode].rollout
        if rollout is None:
            continue
        for event in rollout.events:
            events.append(
                {
                    "strategy": mode,
                    "time_s": round(float(event["time_s"]), 1),
                    "shard": event["shard"],
                    "action": event["action"],
                    "version": event["version"],
                    "downtime_s": round(float(event["downtime_s"]), 2),
                }
            )
    if events:
        lines += ["", "deployment events:", format_table(events)]
    verdict = scenario.verdict()
    if verdict is not None:
        lines += [
            "",
            "canary analyzer verdict:",
            format_table(
                [
                    {
                        "promote": verdict.promote,
                        "growth_ratio": round(verdict.growth_ratio, 1),
                        "p_value": round(verdict.p_value, 4),
                        "trending_up": verdict.trending_up,
                        "canary_growth_kb": kb(verdict.canary_growth_bytes),
                        "baseline_growth_kb": kb(verdict.baseline_growth_bytes),
                    }
                ]
            ),
            f"reason: {verdict.reason}",
        ]
    lines += [
        "",
        format_table(
            [
                {
                    "claim": "canary+rollback SLA cost < blind rollout",
                    "no_deploy": round(scenario.sla_cost("no-deploy"), 1),
                    "canary": round(scenario.sla_cost("canary"), 1),
                    "blind": round(scenario.sla_cost("blind"), 1),
                    "holds": scenario.canary_wins(),
                }
            ]
        ),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Progressive delivery
# --------------------------------------------------------------------------- #
def rollout_report(scenario: RolloutScenarioResult) -> str:
    """Per-strategy outcome, the staged run's stage ladder and the SLA claim."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    report = scenario.staged_report()
    lines = [
        f"== Progressive delivery at {scenario.shards} shards: "
        "staged ladder vs. single canary vs. blind rollout ==",
        f"expectation: the '{scenario.version}' build of {scenario.component} "
        "leaks; the staged pipeline catches it during stage 1's bake — the "
        "deployed shard's aging alert triggers the analyzer ruling mid-bake "
        "— and partial rollback reverts only the deployed shards, so no "
        "more than the active stage is ever exposed; the blind rollout "
        "ships the leak fleet-wide",
        f"stage ladder: {' -> '.join(str(size) for size in report.ladder)} shards, "
        f"per-shard heap capacity: {scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB, "
        f"run length: {scenario.duration:.0f} s",
        "",
        "per-strategy rollout outcome and SLA cost:",
        format_table(scenario.summary_rows()),
    ]
    stage_rows = []
    for stage in report.stages:
        stage_rows.append(
            {
                "stage": stage["stage"],
                "size": stage["size"],
                "shards": ",".join(str(index) for index in stage["shards"]),
                "deployed_at_s": round(float(stage["deployed_at"]), 1),
                "ruled_at_s": (
                    round(float(stage["ruled_at"]), 1) if "ruled_at" in stage else "-"
                ),
                "trigger": stage.get("trigger", "-"),
                "promote": stage.get("promote", "-"),
            }
        )
    if stage_rows:
        lines += ["", "staged run's stage ladder:", format_table(stage_rows)]
    verdict = report.verdict
    if verdict is not None:
        lines += [
            "",
            "stage analyzer verdict:",
            format_table(
                [
                    {
                        "promote": verdict.promote,
                        "growth_ratio": round(verdict.growth_ratio, 1),
                        "p_value": round(verdict.p_value, 4),
                        "samples": verdict.canary_samples,
                        "insufficient_data": verdict.insufficient_data,
                        "truncated_bake": verdict.truncated_bake,
                    }
                ]
            ),
            f"reason: {verdict.reason}",
        ]
        ruled_at = scenario.ruled_at()
        deadline_at = scenario.deadline_at()
        if (
            scenario.ruling_trigger() == "alert"
            and ruled_at is not None
            and deadline_at is not None
        ):
            lines.append(
                f"alert-driven: ruled at {ruled_at:.1f} s, "
                f"{deadline_at - ruled_at:.1f} s ahead of the bake deadline"
            )
    lines += [
        "",
        format_table(
            [
                {
                    "claim": "staged <= single-canary <= blind SLA cost, staged < blind",
                    "staged": round(scenario.sla_cost("staged"), 1),
                    "single_canary": round(scenario.sla_cost("single-canary"), 1),
                    "blind": round(scenario.sla_cost("blind"), 1),
                    "max_exposed": scenario.max_exposed_shards("staged"),
                    "holds": scenario.staged_wins(),
                }
            ]
        ),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Hybrid fluid/discrete scale validation
# --------------------------------------------------------------------------- #
def scale_report(scenario: ScaleScenarioResult) -> str:
    """Per-run summary, validation bands and the event-reduction claim."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    lines = [
        f"== Hybrid scale validation at {scenario.shards} shards: "
        "discrete vs. hybrid vs. hybrid at "
        f"{scenario.population_factor}x population ==",
        "expectation: the hybrid engine (bulk population as a mean-field "
        "fluid process, a small tracer slice on the real servlet/SQL path) "
        "reproduces the discrete run's throughput, heap-exhaustion trend and "
        "rejuvenation decisions at 1x, then serves a population a "
        "full-discrete run could not — with the extrapolated discrete-event "
        "count cut by the reduction factor below",
        f"1x population: {scenario.ebs} EBs, per-shard heap capacity: "
        f"{scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB "
        f"({scenario.scaled_heap_capacity / (1024.0 * 1024.0):.2f} MB scaled), "
        f"run length: {scenario.duration:.0f} s",
        "",
        "per-run outcome:",
        format_table(scenario.summary_rows()),
        "",
        "validation bands (1x cross-check + scaled event reduction):",
        format_table(scenario.band_rows(), ["band", "measured", "bound", "ok"]),
        "",
        format_table(
            [
                {
                    "claim": "hybrid within every band",
                    "event_reduction": f"{scenario.event_reduction():.1f}x",
                    "holds": scenario.within_bands(),
                }
            ]
        ),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Adaptive rejuvenation & SLA comparison
# --------------------------------------------------------------------------- #
def adaptive_report(scenario: AdaptiveScenarioResult) -> str:
    """Per-(workload, policy) SLA table, predictor error stats and verdicts."""
    model = scenario.cost_model
    lines = [
        "== Adaptive rejuvenation & SLA comparison ==",
        "expectation: the adaptive policy's SLA cost matches or beats the best "
        "fixed policy on the memory leak, and rejuvenation eliminates the "
        "error spikes of the thread/connection no-action runs",
        f"SLA target: {model.target_availability:.3%} availability "
        f"(error budget {model.error_budget_seconds(scenario.duration):.1f} s "
        f"over {scenario.duration:.0f} s); scalar = "
        f"{model.downtime_weight:g}*downtime_s + {model.exposure_weight:g}*exposure_s "
        f"+ {model.failed_request_weight:g}*failed + "
        f"{model.refused_request_weight:g}*refused + "
        f"{model.burn_weight:g}*max(0, burn-1)",
        "",
        "per-(workload, policy) availability and SLA cost:",
        format_table(scenario.summary_rows()),
    ]
    predictor_rows = scenario.predictor_rows()
    if predictor_rows:
        lines += [
            "",
            "adaptive predictor error statistics (per resource):",
            format_table(predictor_rows),
        ]
    analytic_rows = scenario.analytic_rows()
    if analytic_rows:
        lines += [
            "",
            "analytic M/M/c cross-check of the no-action runs (predicted from "
            "the workload configuration alone; tte_ok = within a factor of "
            f"{TTE_TOLERANCE_FACTOR:g} of the realized exhaustion time):",
            format_table(analytic_rows),
        ]
    verdicts = []
    adaptive_cost = scenario.sla_cost("memory", "adaptive")
    best_fixed = scenario.best_fixed_cost("memory")
    verdicts.append(
        {
            "claim": "memory: adaptive <= best fixed policy",
            "adaptive": round(adaptive_cost, 1),
            "best_fixed": round(best_fixed, 1),
            "holds": adaptive_cost <= best_fixed,
        }
    )
    for workload in ("threads", "connections"):
        no_action_errors = scenario.result(workload, "no-action").error_count
        adaptive_errors = scenario.result(workload, "adaptive").error_count
        verdicts.append(
            {
                "claim": f"{workload}: rejuvenation eliminates error spike",
                "adaptive": adaptive_errors,
                "best_fixed": no_action_errors,
                "holds": no_action_errors > 0 and adaptive_errors == 0,
            }
        )
    lines += ["", "verdicts:", format_table(verdicts, ["claim", "adaptive", "best_fixed", "holds"])]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Cross-run calibration learning
# --------------------------------------------------------------------------- #
def learning_report(scenario: LearningScenarioResult) -> str:
    """Per-(mode, run) table and the cumulative cold-vs-warm verdicts."""
    lines = [
        "== Cross-run calibration learning: cold vs. warm-started adaptive ==",
        "expectation: persisting the adaptive policy's converged calibration "
        "per workload signature lets run N+1 open at run N's horizon, "
        "skipping the conservative early recycles cold re-learning pays — "
        "cumulative SLA cost falls run over run",
        f"workload: fast memory leak (heap capacity "
        f"{scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB), "
        f"{scenario.runs} runs per mode, seeds {scenario.seed}..."
        f"{scenario.seed + scenario.runs - 1}, run length {scenario.duration:.0f} s",
        f"calibration store: {scenario.store_path}",
        f"workload signature: {scenario.signature}",
        "",
        "per-(mode, run) outcome:",
        format_table(scenario.summary_rows()),
        "",
        "verdicts:",
        format_table(scenario.verdict_rows(), ["claim", "warm", "cold", "holds"]),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Mixed-fault comparison
# --------------------------------------------------------------------------- #
def mixed_report(scenario: MixedScenarioResult) -> str:
    """Per-policy summary of the two-resource mixed-fault comparison."""
    injected = ", ".join(
        f"{component} ({kind})" for component, kind in scenario.injected.items()
    )
    lines = [
        "== Mixed faults: concurrent heap leak and connection leak ==",
        "expectation: the recycling policies (proactive and adaptive) recycle "
        "the right component per resource — the heap channel blames the memory "
        "leaker via root-cause analysis, the connection channel blames the "
        "connection leaker via pool ownership (the same component, when it "
        "leaks both) — while no action pays with OOM and pool-refusal errors",
        f"heap capacity: {scenario.heap_capacity / (1024.0 * 1024.0):.2f} MB, "
        f"pool bound: {scenario.pool_size} connections, "
        f"run length: {scenario.duration:.0f} s, injected: {injected}",
        "",
        "per-policy outcome and attribution:",
        format_table(scenario.summary_rows()),
    ]
    events = []
    for name, result in scenario.results.items():
        if result.rejuvenation is None:
            continue
        for event in result.rejuvenation.events:
            events.append(
                {
                    "policy": name,
                    "time_s": round(event.time, 1),
                    "resource": event.resource,
                    "action": event.kind,
                    "component": event.component or "(whole server)",
                    "reclaimed_threads": event.reclaimed_threads,
                    "reclaimed_connections": event.reclaimed_connections,
                    "reclaimed_kb": round(event.reclaimed_bytes / 1024.0, 1),
                }
            )
    if events:
        lines += ["", "executed actions:", format_table(events)]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Robustness: accounting sanity, retry storm, fault zoo
# --------------------------------------------------------------------------- #
def accounting_sanity_check(result: ExperimentResult) -> Dict[str, int]:
    """Re-assert the request ledger of a finished run before reporting it.

    ``completions + errors + refusals + in_flight`` must equal ``issued``
    and nothing may still be in flight — every issued attempt has to land
    in exactly one bucket, or some refusal/retry was silently dropped.
    Raises ``RuntimeError`` on violation; returns the ledger otherwise.
    """
    ledger = result.accounting
    if not ledger:
        # Result predates the ledger (or was built by hand): reconstruct the
        # invariant from the coarse counters.
        ledger = {
            "issued": result.completed_requests + result.refused_requests,
            "completions": result.completed_requests - result.error_count,
            "errors": result.error_count,
            "refusals": result.refused_requests,
            "in_flight": 0,
        }
    total = (
        ledger["completions"]
        + ledger["errors"]
        + ledger["refusals"]
        + ledger["in_flight"]
    )
    if total != ledger["issued"] or ledger["in_flight"] != 0:
        raise RuntimeError(f"request accounting violated: {ledger}")
    return ledger


def retry_storm_report(scenario: RetryStormResult) -> str:
    """Naive-vs-resilient ledger, retry behaviour and the SLA-cost verdict."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    delta = scenario.cost_delta()
    lines = [
        "== Retry storm: naive immediate retries vs. backoff + circuit breaker ==",
        "expectation: against a degrading dependency, immediate retries amplify "
        "their own damage (timeouts breed retries breed load); jittered backoff "
        "plus a per-component breaker converts expensive failed pages into "
        "cheap fast refusals — a strictly lower SLA cost",
        f"client timeout: {scenario.timeout_seconds:g} s, "
        f"run length: {scenario.duration:.0f} s",
        "",
        "per-mode ledger and SLA cost:",
        format_table(scenario.summary_rows()),
        "",
        format_table(
            [
                {
                    "claim": "resilient SLA cost < naive SLA cost",
                    "naive": round(scenario.sla_cost("naive"), 1),
                    "resilient": round(scenario.sla_cost("resilient"), 1),
                    "delta": round(delta, 1),
                    "holds": delta > 0,
                }
            ]
        ),
    ]
    return "\n".join(lines)


def zoo_report(scenario: ZooResult) -> str:
    """Per-fault outcome and the attribution verdicts of the fault zoo."""
    for result in scenario.results.values():
        accounting_sanity_check(result)
    lines = [
        "== Fault zoo: five degradation modes, one attribution question ==",
        "expectation: the cascade-aware strategy blames the faulted component "
        f"({scenario.injected_component}) for every fault — including the "
        "latency-mode faults the resource map cannot see, and the correlated "
        f"cascade whose victim ({scenario.cascade_victim}) merely slows down",
        f"run length per fault: {scenario.duration:.0f} s",
        "",
        "per-fault outcome:",
        format_table(scenario.summary_rows()),
        "",
        "attribution verdicts:",
        format_table(scenario.verdict_rows(), ["claim", "blamed", "victim_rank", "holds"]),
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Fig. 6
# --------------------------------------------------------------------------- #
def fig6_report(map_rows: List[Dict[str, object]], focus: Optional[List[str]] = None) -> str:
    """The consumption-vs-usage map composed by the Manager Agent."""
    rows = map_rows
    if focus is not None:
        rows = [row for row in map_rows if row.get("component") in focus]
    return (
        "== Fig. 6: resource-consumption vs. component-usage map ==\n"
        "paper expectation: A and B in the high-usage/high-consumption quadrant, "
        "C consuming less, D flat\n\n" + format_table(rows)
    )
