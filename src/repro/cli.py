"""Command-line interface.

A small operational front door so the library can be driven without writing
Python — useful for the "administrator" persona the paper's External
Front-end targets::

    repro quickstart                  # install + leak + diagnose
    repro fig3 --duration-scale 0.1   # overhead experiment
    repro environment                 # Table I, paper vs. reproduction

Running ``repro`` with no command prints the full registry table: the
utility commands plus one row of :data:`SCENARIO_COMMANDS` per scenario.
Every scenario command runs through one generic runner that takes the
shared ``--seed``/``--duration-scale``/``--tiny`` flags.  All experiments
run in virtual time; ``--duration-scale`` scales the paper's one-hour runs,
``--tiny`` switches to the small test database population.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.experiments.environment import environment_rows
from repro.experiments.reporting import (
    adaptive_report,
    canary_report,
    fig3_report,
    fig6_report,
    fleet_report,
    format_table,
    leak_scenario_report,
    learning_report,
    mixed_report,
    rejuvenation_report,
    retry_storm_report,
    rollout_report,
    scale_report,
    zoo_report,
)
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    fig3_overhead,
    fig4_single_leak,
    fig5_multi_leak,
    fig6_manager_map,
    fig7_injection_sizes,
    fig_adaptive,
    fig_canary,
    fig_fleet,
    fig_learning,
    fig_mixed,
    fig_rejuvenation,
    fig_retry_storm,
    fig_rollout,
    fig_scale,
    fig_zoo,
)
from repro.tpcw.population import PopulationScale


def _population(args: argparse.Namespace) -> PopulationScale:
    return PopulationScale.tiny() if args.tiny else PopulationScale.standard()


def _cmd_environment(args: argparse.Namespace) -> int:
    print("== Table I: experimental environment (paper vs. reproduction) ==")
    print(format_table(environment_rows(), ["tier", "attribute", "paper", "reproduction"]))
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.core.framework import FrameworkConfig, MonitoringFramework
    from repro.faults.injector import FaultInjector
    from repro.faults.memory_leak import MemoryLeakFault
    from repro.sim.engine import SimulationEngine
    from repro.tpcw.application import build_deployment
    from repro.tpcw.workload import WorkloadGenerator, WorkloadPhase

    engine = SimulationEngine()
    deployment = build_deployment(scale=_population(args), seed=args.seed, clock=engine.clock)
    framework = MonitoringFramework(
        deployment, engine=engine, config=FrameworkConfig(snapshot_interval=30.0)
    )
    framework.install()
    FaultInjector(deployment).inject(
        args.component,
        MemoryLeakFault(leak_bytes=args.leak_kb * 1024, period_n=args.period_n,
                        streams=deployment.streams),
    )
    generator = WorkloadGenerator(engine, deployment)
    generator.schedule_phases([WorkloadPhase(0.0, args.ebs)])
    duration = 3600.0 * args.duration_scale
    framework.schedule_snapshots(duration=duration, interval=30.0)
    generator.run(duration)

    print(
        f"{generator.completed_requests} requests served at "
        f"{generator.mean_throughput():.2f} req/s "
        f"(mean response time {generator.mean_response_time() * 1000:.1f} ms)\n"
    )
    print(framework.frontend.map_report())
    print()
    print(framework.frontend.root_cause_report())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.registry import BenchOptions, all_bench_names, run_benches, write_json

    if args.list:
        for name in all_bench_names():
            print(name)
        return 0

    if args.compare:
        return _cmd_bench_compare(args.compare[0], args.compare[1])

    options = BenchOptions.from_environment()
    if args.seed is not None:
        options.seed = args.seed
    if args.duration_scale is not None:
        options.duration_scale = args.duration_scale
    if args.tiny:
        options.tiny = True
    names = None
    if args.only:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(names) - set(all_bench_names()))
        if unknown:
            known = ", ".join(all_bench_names())
            print(f"error: unknown benchmark(s): {', '.join(unknown)} (known: {known})", file=sys.stderr)
            return 2

    print(f"== repro bench (seed={options.seed}, duration_scale={options.duration_scale}, tiny={options.tiny}) ==")
    results = run_benches(names, options, progress=lambda name: print(f"-- running {name} ..."))

    failed = False
    for result in results:
        speedup = (
            f"{result.speedup_vs_seed:.2f}x vs seed" if result.speedup_vs_seed is not None else "no comparable baseline"
        )
        if result.passed is None:
            verdict = "info"
        elif result.passed:
            verdict = "PASS"
        else:
            verdict = "FAIL"
            failed = True
        target = f" (target {result.target_speedup:.2f}x)" if result.target_speedup is not None else ""
        print(f"{result.name:18s} {speedup}{target} [{verdict}]")
    if args.json:
        write_json(args.json, results, options)
        print(f"wrote {args.json}")
    return 1 if failed else 0


def _cmd_bench_compare(old_path: str, new_path: str) -> int:
    """Print per-bench speedup deltas; exit non-zero on a >10 % regression."""
    from repro.perf.registry import compare_artifacts

    try:
        comparisons = compare_artifacts(old_path, new_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"== bench compare: {old_path} -> {new_path} ==")
    regressions: List[str] = []
    for row in comparisons:
        old = f"{row.old_speedup:.2f}x" if row.old_speedup is not None else "-"
        new = f"{row.new_speedup:.2f}x" if row.new_speedup is not None else "-"
        delta = f"{row.delta_percent:+.1f}%" if row.delta_percent is not None else "n/a"
        tiny = "tiny" if row.options.get("tiny") else "full"
        note = f"  [{row.note}]" if row.note else ""
        print(f"{row.name:18s} {tiny:4s}  {old:>8s} -> {new:>8s}  {delta:>8s}{note}")
        if row.regression:
            regressions.append(f"{row.name}[{tiny}] {delta}")
    if regressions:
        # One line naming every regressed (name, options) entry and its
        # delta, so a CI log tail identifies the culprits without scrolling.
        print(
            f"{len(regressions)} regression(s) beyond tolerance: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 1
    print("no regressions beyond tolerance")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.transports import (
        load_stream,
        recorded_verdicts,
        replay_verdicts,
        ruling_events,
    )

    try:
        records = load_stream(args.stream)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record = records[-1]
    events = ruling_events(record)
    if not events:
        print(
            f"{args.stream}: {len(records)} records, no analyzer rulings "
            "recorded (was the run deployed with analysis?)"
        )
        return 0

    overrides = {}
    if args.growth_ratio_threshold is not None:
        overrides["growth_ratio_threshold"] = args.growth_ratio_threshold
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.burn_delta_threshold is not None:
        overrides["burn_delta_threshold"] = args.burn_delta_threshold

    try:
        recorded = recorded_verdicts(record)
        replayed = replay_verdicts(record, overrides or None)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(
        f"== repro replay: {len(events)} ruling(s) over {len(records)} "
        f"records from {args.stream} =="
    )
    rows = []
    for event, live, offline in zip(events, recorded, replayed):
        analysis = event["analysis"]
        rows.append(
            {
                "ruled_at_s": round(float(analysis["ruled_at"]), 1),
                "stage": event.get("stage", "-"),
                "trigger": analysis.get("trigger", "-"),
                "recorded": "promote" if live["promote"] else "rollback",
                "replayed": "promote" if offline["promote"] else "rollback",
                "growth_ratio": round(float(offline["growth_ratio"]), 1),
                "samples": offline["canary_samples"],
            }
        )
    print(format_table(rows))

    if overrides:
        named = ", ".join(f"{key}={value:g}" for key, value in sorted(overrides.items()))
        flips = sum(
            1 for live, offline in zip(recorded, replayed) if live["promote"] != offline["promote"]
        )
        print(
            f"\nre-ruled under tuned thresholds ({named}): "
            f"{flips} verdict(s) flipped vs. the live run"
        )
        return 0

    def _canonical(verdicts):
        return json.dumps(verdicts, sort_keys=True, separators=(",", ":"))

    if _canonical(recorded) == _canonical(replayed):
        print("\nreplayed verdicts are byte-identical to the live run's")
        return 0
    print("\nerror: replayed verdicts diverge from the recorded ones", file=sys.stderr)
    for index, (live, offline) in enumerate(zip(recorded, replayed)):
        for key in live:
            if live.get(key) != offline.get(key):
                print(
                    f"  ruling {index}: {key}: recorded {live.get(key)!r} "
                    f"!= replayed {offline.get(key)!r}",
                    file=sys.stderr,
                )
    return 1


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import (
        AblationManifest,
        default_manifest,
        run_ablation,
        smoke_manifest,
        write_reports,
    )
    from repro.experiments.reporting import format_table as _table

    if args.manifest is not None:
        try:
            manifest = AblationManifest.from_file(args.manifest)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.preset == "smoke":
        manifest = smoke_manifest()
    else:
        manifest = default_manifest()
    if args.tiny:
        manifest.tiny = True
    duration_scale = args.duration_scale

    print(
        f"== repro ablate: {manifest.name} "
        f"({manifest.cell_count()} cells, duration_scale="
        f"{duration_scale if duration_scale is not None else manifest.duration_scale:g}) =="
    )
    result = run_ablation(
        manifest,
        duration_scale=duration_scale,
        progress=lambda label: print(f"-- running {label} ..."),
        jobs=args.jobs,
    )
    print()
    print("mechanism importance (SLA cost removed vs. baseline):")
    print(_table(result.mechanism_importance()))
    print()
    print("policy regret (mean excess SLA cost over per-cell best):")
    print(_table(result.policy_regret()))
    print()
    print("fault severity (mean SLA cost):")
    print(_table(result.fault_severity()))
    for path in write_reports(result, args.out):
        print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
#: One extra scenario flag: ``(flag, add_argument options)``.  Its argparse
#: ``dest`` is the keyword argument it feeds the scenario function.
ExtraArg = Tuple[str, Dict[str, Any]]


def _shards(default: int) -> ExtraArg:
    return "--shards", dict(
        type=int, default=default, help="application-server instances behind the balancer"
    )


@dataclass(frozen=True)
class ScenarioCommand:
    """One scenario subcommand in one row: what it runs, prints and asserts.

    The generic runner calls ``scenario(duration_scale=..., seed=...,
    scale=..., **extra)``, where ``extra`` holds ``--ebs`` (if the row takes
    it) and every extra argument under its argparse ``dest``; it prints
    ``report(result)`` and exits 1 when ``verdict(result)`` is false.
    """

    name: str
    help: str
    scenario: Callable[..., Any]
    report: Callable[[Any], str]
    #: Exit-code predicate over the scenario result (``None``: always 0).
    verdict: Optional[Callable[[Any], bool]] = None
    #: Whether the subcommand takes the shared ``--ebs`` knob.
    include_ebs: bool = True
    extra_args: Tuple[ExtraArg, ...] = ()
    #: Mode whose run ``--stream-metrics`` streams to JSONL; the runner exits
    #: 2 when the stream's final counters disagree with that run's ledger.
    streamed_mode: Optional[str] = None


def _fig5_report(scenario: Any) -> str:
    leaks = leak_scenario_report(
        scenario,
        title="Fig. 5: 100 KB (N=100) injected in components A, B, C and D",
        expectation="A and B grow fastest and similarly, C slower, D flat",
    )
    return f"{leaks}\n\n{fig6_report(fig6_manager_map(scenario))}"


def _stream_matches_ledger(path: str, result: ExperimentResult) -> bool:
    """Whether the final record of the JSONL stream at ``path`` carries the
    same counters as ``result``'s post-hoc ledger (reported either way)."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    streamed = json.loads(lines[-1])["counters"]
    ledger = dict(result.accounting)
    if streamed != ledger:
        print(
            "error: streamed final counters disagree with the post-hoc "
            f"ledger\n  stream: {streamed}\n  ledger: {ledger}",
            file=sys.stderr,
        )
        return False
    print(
        f"\nstreamed {len(lines)} metrics records to {path}; "
        "final counters match the post-hoc ledger "
        f"(replay the rulings with: repro replay {path})"
    )
    return True


def _run_scenario(args: argparse.Namespace) -> int:
    """Run one :data:`SCENARIO_COMMANDS` row from its parsed arguments."""
    command: ScenarioCommand = args.scenario_command
    extra = {dest: getattr(args, dest) for dest in args.scenario_kwargs}
    scenario = command.scenario(
        duration_scale=args.duration_scale, seed=args.seed, scale=_population(args), **extra
    )
    print(command.report(scenario))
    stream = extra.get("stream_metrics")
    if stream and not _stream_matches_ledger(stream, scenario.result(command.streamed_mode)):
        return 2
    return 0 if command.verdict is None or command.verdict(scenario) else 1


SCENARIO_COMMANDS: List[ScenarioCommand] = [
    ScenarioCommand(
        "fig3", "overhead experiment (monitored vs. unmonitored throughput)",
        fig3_overhead, fig3_report, include_ebs=False,
    ),
    ScenarioCommand(
        "fig4", "single-leak experiment", fig4_single_leak,
        partial(
            leak_scenario_report,
            title="Fig. 4: injection in component A (100 KB, N=100)",
            expectation="A grows to MBs, the rest stay flat, A gets 100% responsibility",
        ),
    ),
    ScenarioCommand("fig5", "four identical leaks (+ the Fig. 6 map)", fig5_multi_leak, _fig5_report),
    ScenarioCommand(
        "fig7", "heterogeneous leak sizes", fig7_injection_sizes,
        partial(
            leak_scenario_report,
            title="Fig. 7: A=100 KB, B=10 KB, C=1 MB, D=1 MB (N=100)",
            expectation="C first, A second, B third, D flat",
        ),
    ),
    ScenarioCommand(
        "rejuvenation", "live rejuvenation: no action vs. restarts vs. micro-reboots",
        fig_rejuvenation, rejuvenation_report,
    ),
    ScenarioCommand(
        "adaptive", "adaptive rejuvenation & SLA comparison over memory/thread/connection leaks",
        fig_adaptive, adaptive_report,
    ),
    ScenarioCommand(
        "mixed", "mixed faults: concurrent heap + connection leaks in different components",
        fig_mixed, mixed_report,
        extra_args=(
            ("--dual", dict(
                dest="dual_leak", action="store_true",
                help="dual-leak variant: the same component leaks heap AND connections",
            )),
        ),
    ),
    ScenarioCommand(
        "learning", "cross-run calibration learning: cold vs. warm-started adaptive",
        fig_learning, learning_report,
        extra_args=(
            ("--runs", dict(type=int, default=4, help="repeated runs per mode (cold/warm)")),
            ("--store", dict(
                dest="store_path", metavar="PATH", default=None,
                help="calibration store JSON path (default: a fresh temporary file)",
            )),
        ),
    ),
    ScenarioCommand(
        "zoo", "fault zoo: five degradation modes + cascade-aware attribution verdicts",
        fig_zoo, zoo_report,
    ),
    ScenarioCommand(
        "storm", "retry storm: naive immediate retries vs. backoff + circuit breaker",
        fig_retry_storm, retry_storm_report, verdict=lambda scenario: scenario.cost_delta() > 0,
    ),
    ScenarioCommand(
        "fleet", "sharded fleet: rolling vs. simultaneous vs. no-action rejuvenation",
        fig_fleet, fleet_report, verdict=methodcaller("rolling_wins"),
        extra_args=(
            _shards(4),
            ("--balancer", dict(
                dest="balancer_policy", choices=["sticky", "round-robin", "least-occupancy"],
                default="sticky", help="load-balancer policy",
            )),
        ),
    ),
    ScenarioCommand(
        "canary", "canary deploy of a leaky build: catch + rollback vs. blind rollout",
        fig_canary, canary_report, verdict=methodcaller("canary_wins"),
        extra_args=(_shards(3),), streamed_mode="canary",
    ),
    ScenarioCommand(
        "rollout",
        "progressive delivery: staged ladder + alert-driven rollback vs. single canary vs. blind",
        fig_rollout, rollout_report, verdict=methodcaller("staged_wins"),
        extra_args=(_shards(4),), streamed_mode="staged",
    ),
    ScenarioCommand(
        "scale", "hybrid fluid/discrete engine: 1x validation bands + scaled population",
        fig_scale, scale_report, verdict=methodcaller("within_bands"),
        extra_args=(
            _shards(2),
            ("--population-factor", dict(
                type=int, default=100, help="bulk-population multiplier of the scaled hybrid run",
            )),
            ("--tracer-fraction", dict(
                type=float, default=0.02,
                help="fraction of EBs kept on the discrete servlet/SQL path",
            )),
        ),
    ),
]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software-aging root-cause determination (Alonso et al. 2010) — reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")

    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, include_ebs: bool = True) -> None:
        sub.add_argument("--seed", type=int, default=42, help="master random seed")
        sub.add_argument(
            "--duration-scale",
            type=float,
            default=0.1,
            help="scale of the paper's one-hour experiments (1.0 = full length)",
        )
        sub.add_argument("--tiny", action="store_true", help="use the small test database population")
        if include_ebs:
            sub.add_argument("--ebs", type=int, default=100, help="number of Emulated Browsers")

    environment_parser = subparsers.add_parser("environment", help="print Table I (paper vs. reproduction)")
    environment_parser.set_defaults(handler=_cmd_environment)

    quickstart_parser = subparsers.add_parser("quickstart", help="install the framework, inject a leak, diagnose")
    add_common(quickstart_parser)
    quickstart_parser.add_argument("--component", default="home", help="component to inject the leak into")
    quickstart_parser.add_argument("--leak-kb", type=int, default=100, help="leak size in KB")
    quickstart_parser.add_argument("--period-n", type=int, default=20, help="injection countdown parameter N")
    quickstart_parser.set_defaults(handler=_cmd_quickstart)

    for command in SCENARIO_COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        add_common(sub, include_ebs=command.include_ebs)
        extra_args = list(command.extra_args)
        if command.streamed_mode is not None:
            extra_args.append(("--stream-metrics", dict(
                metavar="PATH", default=None,
                help=f"stream observability snapshots of the {command.streamed_mode} "
                "run to a JSONL file (replayable with `repro replay`)",
            )))
        dests = ["ebs"] if command.include_ebs else []
        dests += [sub.add_argument(flag, **options).dest for flag, options in extra_args]
        sub.set_defaults(handler=_run_scenario, scenario_command=command, scenario_kwargs=dests)

    bench_parser = subparsers.add_parser(
        "bench", help="run the perf microbenchmarks (speedups vs. the seed baseline)"
    )
    bench_parser.add_argument("--json", metavar="PATH", help="write a BENCH_perf.json artifact")
    bench_parser.add_argument("--only", metavar="NAMES", help="comma-separated benchmark names")
    bench_parser.add_argument("--list", action="store_true", help="list benchmark names and exit")
    bench_parser.add_argument("--seed", type=int, default=None, help="override REPRO_BENCH_SEED")
    bench_parser.add_argument(
        "--duration-scale", type=float, default=None, help="override REPRO_BENCH_DURATION_SCALE"
    )
    bench_parser.add_argument(
        "--tiny", action="store_true", help="tiny iteration counts (CI smoke; REPRO_BENCH_TINY=1)"
    )
    bench_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.json", "NEW.json"),
        help="compare two bench artifacts per (name, options); exit non-zero "
        "on a >10%% speedup regression of any previously-passing bench",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    ablate_parser = subparsers.add_parser(
        "ablate",
        help="run the policy × fault × mechanism × seed ablation matrix and "
        "write ranked importance/regret reports",
    )
    ablate_parser.add_argument(
        "--manifest", metavar="PATH", default=None, help="manifest JSON path"
    )
    ablate_parser.add_argument(
        "--preset",
        choices=["default", "smoke"],
        default="default",
        help="built-in manifest to run when --manifest is not given",
    )
    ablate_parser.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks/results",
        help="directory the ablation_<name>.{json,csv,md} artifacts go to",
    )
    ablate_parser.add_argument(
        "--duration-scale",
        type=float,
        default=None,
        help="override the manifest's duration scale",
    )
    ablate_parser.add_argument(
        "--tiny", action="store_true", help="force the small test database population"
    )
    ablate_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for matrix cells (1 = serial; reports are "
        "byte-identical either way)",
    )
    ablate_parser.set_defaults(handler=_cmd_ablate)

    replay_parser = subparsers.add_parser(
        "replay",
        help="feed a recorded JSONL metrics stream back through the canary "
        "analyzer offline (verify byte-identity, or tune thresholds)",
    )
    replay_parser.add_argument(
        "stream", metavar="STREAM.jsonl", help="stream recorded with --stream-metrics"
    )
    replay_parser.add_argument(
        "--growth-ratio-threshold",
        type=float,
        default=None,
        help="re-rule under this growth-ratio threshold instead of the recorded one",
    )
    replay_parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="re-rule under this Mann-Kendall significance level",
    )
    replay_parser.add_argument(
        "--burn-delta-threshold",
        type=float,
        default=None,
        help="re-rule under this SLA-burn delta threshold",
    )
    replay_parser.set_defaults(handler=_cmd_replay)

    return parser


#: Non-scenario subcommands and their one-line help, for the registry table.
_UTILITY_COMMANDS = [
    ("environment", "print Table I (paper vs. reproduction)"),
    ("quickstart", "install the framework, inject a leak, diagnose"),
    ("bench", "run the perf microbenchmarks (speedups vs. the seed baseline)"),
    ("ablate", "run the policy × fault × mechanism × seed ablation matrix"),
    ("replay", "replay a recorded metrics stream through the canary analyzer offline"),
]


def _registry_table() -> str:
    """The full command registry as a table (shown on unknown commands)."""
    rows = [
        {"command": name, "what it runs": help_text}
        for name, help_text in _UTILITY_COMMANDS
    ]
    rows += [
        {"command": command.name, "what it runs": command.help}
        for command in SCENARIO_COMMANDS
    ]
    return format_table(rows, ["command", "what it runs"])


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = list(sys.argv[1:] if argv is None else argv)
    # A wrong or missing subcommand prints the scenario registry instead of
    # argparse's bare "invalid choice" error.  The only pre-subcommand flags
    # (-h/--help/--version) take no value, so the first non-flag argument is
    # the attempted command.
    command = next((arg for arg in arguments if not arg.startswith("-")), None)
    known = {name for name, _ in _UTILITY_COMMANDS}
    known.update(command_row.name for command_row in SCENARIO_COMMANDS)
    wants_help = any(arg in ("-h", "--help", "--version") for arg in arguments)
    if (command is None and not wants_help) or (command is not None and command not in known):
        if command is not None:
            print(f"error: unknown command {command!r}", file=sys.stderr)
        print("available commands:", file=sys.stderr)
        print(_registry_table(), file=sys.stderr)
        return 2
    args = parser.parse_args(arguments)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
