"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces public functions of each ``repro`` layer with a wrapper
that records one span per call: name, start, end, parent span, the request
id of the enclosing ``ApplicationServer.handle`` call (0 outside a request),
the phase (set-up or run) and whether the call raised.  Spans stay in
memory until :meth:`Tracer.write_spans`; :meth:`Tracer.layer_metrics`
derives self times (span minus its child spans) and the per-layer counts.

Nothing inside ``src/repro`` is edited.  Classes must be wrapped before
``MonitoringFramework.install`` weaves the servlets, so that the woven
``service`` wrapper calls the traced one.  A span's name starts with its
layer, one of :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import statistics
import types
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The ``src/repro`` modules the benchmark reports one share each for.
LAYERS = (
    "sim", "tpcw", "container", "aop", "core", "jmx",
    "jvm", "db", "faults", "slo", "obs", "experiments",
)

SETUP, RUN = 0, 1

# Span record fields.
NAME, START, END, PARENT, REQUEST, PHASE, ERROR = range(7)


def _targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every traced function."""
    from repro.aop.weaver import Weaver
    from repro.container.server import ApplicationServer
    from repro.core.aspect_component import AspectComponent
    from repro.core.manager_agent import ManagerAgent
    from repro.core.monitoring_agents import MonitoringAgent
    from repro.core.rejuvenation import RejuvenationController
    from repro.db import planner
    from repro.db.engine import Database
    from repro.db.jdbc import Connection, DataSource
    from repro.db.planner import CompiledSelect
    from repro.experiments.cluster import FleetRejuvenationController, LoadBalancer
    from repro.experiments.deploy import CanaryAnalyzer
    from repro.faults.base import Fault
    from repro.jmx.mbean_server import MBeanServer
    from repro.jvm.gc import GarbageCollector
    from repro.jvm.heap import Heap
    from repro.jvm.threads import ThreadRegistry
    from repro.obs.registry import MetricsRegistry
    from repro.obs.transports import JsonlMetricsStream
    from repro.sim.engine import SimulationEngine
    from repro.sim.fluid import FluidProcess
    from repro.slo.adaptive_policy import AdaptiveRejuvenationPolicy
    from repro.slo.predictors import ExhaustionPredictor
    from repro.tpcw import application
    from repro.tpcw.servlets.base import TpcwServlet
    from repro.tpcw.workload import WorkloadGenerator

    targets = [
        (SimulationEngine, "run_until", "sim.run_until"),
        (FluidProcess, "update", "sim.fluid_update"),
        (WorkloadGenerator, "run", "tpcw.workload_run"),
        (TpcwServlet, "service", "tpcw.service"),
        (application, "populate_database", "tpcw.populate_database"),
        (ApplicationServer, "handle", "container.handle"),
        (Weaver, "weave_object", "aop.weave_object"),
        (AspectComponent, "before_component_execution", "core.advice"),
        (AspectComponent, "after_component_execution", "core.advice"),
        (MonitoringAgent, "sample", "core.agent_sample"),
        (ManagerAgent, "record_sample", "core.record_sample"),
        (ManagerAgent, "snapshot", "core.snapshot"),
        (ManagerAgent, "determine_root_cause", "core.root_cause"),
        (RejuvenationController, "check", "core.rejuv_check"),
        (MBeanServer, "invoke", "jmx.invoke"),
        (Heap, "allocate", "jvm.allocate"),
        (Heap, "reachable_from_roots", "jvm.reachability_mark"),
        (ThreadRegistry, "live_count", "jvm.thread_scan"),
        (ThreadRegistry, "count_by_owner", "jvm.thread_scan"),
        (ThreadRegistry, "spawn", "jvm.thread_spawn"),
        (GarbageCollector, "collect", "jvm.gc_collect"),
        (Database, "execute", "db.execute"),
        (CompiledSelect, "execute", "db.select"),
        (planner, "compile_select", "db.plan_compile"),
        (Connection, "execute_update", "db.update"),
        (DataSource, "get_connection", "db.get_connection"),
        (ExhaustionPredictor, "predict", "slo.predict"),
        (AdaptiveRejuvenationPolicy, "decide", "slo.decide"),
        (MetricsRegistry, "snapshot", "obs.snapshot"),
        (JsonlMetricsStream, "emit", "obs.emit"),
        (LoadBalancer, "route", "experiments.route"),
        (CanaryAnalyzer, "analyze_stage", "experiments.ruling"),
        (FleetRejuvenationController, "check", "experiments.fleet_check"),
    ]
    # Fault kinds that override the per-visit hook are traced as well.
    pending, fault_classes = [Fault], []
    while pending:
        cls = pending.pop()
        fault_classes.append(cls)
        pending.extend(cls.__subclasses__())
    targets += [
        (cls, "on_request", "faults.on_request")
        for cls in fault_classes
        if "on_request" in cls.__dict__
    ]
    return targets


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = SETUP
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._request = 0
        self._next_request = 0
        self._epochs: set = set()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        hooks: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
            "container.handle": (None, self._after_handle),
            "aop.weave_object": (None, self._after_weave),
            "jvm.reachability_mark": (self._before_mark, None),
            "faults.on_request": (self._before_fault, self._after_fault),
        }
        for owner, attribute, name in _targets():
            original = owner.__dict__[attribute]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{owner.__name__}.{attribute} is not a plain function")
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(original, name, before, after, name == "container.handle")
            setattr(owner, attribute, wrapper)
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrap(self, original, name, before, after, opens_request):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            outer_request = self._request
            if opens_request:
                self._next_request += 1
                self._request = self._next_request
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, self.phase, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[ERROR] = 1
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()
                self._request = outer_request
            if after is not None:
                after(args, result, token)
            return result

        return traced

    # -- hooks: counts read at the boundary ------------------------------ #
    def _after_handle(self, args, outcome, token) -> None:
        if self.phase == RUN and outcome.refused:
            self.counters["container.refused"] += 1

    def _after_weave(self, args, woven, token) -> None:
        self.counters["aop.woven_methods"] += len(woven)

    def _before_mark(self, args) -> None:
        if self.phase == RUN:
            heap = args[0]
            self._epochs.add((id(heap), heap.liveness_epoch))

    def _before_fault(self, args) -> int:
        return args[0].trigger_count

    def _after_fault(self, args, result, triggers_before) -> None:
        if self.phase == RUN:
            self.counters["faults.injections"] += args[0].trigger_count - triggers_before

    # ------------------------------------------------------------------ #
    # Derived numbers
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                own[parent] -= span[END] - span[START]
        return own

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts and host seconds of this process's spans.

        Setup-phase spans feed only ``tpcw.populate_s`` and ``aop.weave_*``;
        everything else counts run-phase spans.
        """
        self_times = self.self_times()
        count: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        layer_self: Counter = Counter()
        durations: Dict[str, List[float]] = {"container.handle": [], "db.select": []}
        failures: Counter = Counter()
        for span, own in zip(self.spans, self_times):
            name = span[NAME]
            duration = span[END] - span[START]
            if span[PHASE] == SETUP:
                if name in ("tpcw.populate_database", "aop.weave_object"):
                    count[name] += 1
                    total_s[name] += duration
                continue
            count[name] += 1
            self_s[name] += own
            total_s[name] += duration
            layer_self[name.split(".", 1)[0]] += own
            failures[name] += span[ERROR]
            if name in durations:
                durations[name].append(duration)

        def p(values: List[float], q: int) -> float:
            return statistics.quantiles(values, n=100)[q - 1] * 1e6 if len(values) > 1 else 0.0

        requests = count["container.handle"]
        selects = count["db.select"]
        marks = count["jvm.reachability_mark"]
        attributed = sum(layer_self.values())
        metrics = {
            "sim.self_s": self_s["sim.run_until"],
            "sim.fluid_updates": count["sim.fluid_update"],
            "sim.fluid_self_s": self_s["sim.fluid_update"],
            "tpcw.requests": count["tpcw.service"],
            "tpcw.self_s": layer_self["tpcw"],
            "tpcw.populate_s": total_s["tpcw.populate_database"],
            "container.requests": requests,
            "container.self_s": layer_self["container"],
            "container.handle_us_p50": p(durations["container.handle"], 50),
            "container.handle_us_p99": p(durations["container.handle"], 99),
            "container.refused_ratio": self.counters["container.refused"] / requests if requests else 0.0,
            "aop.weave_s": total_s["aop.weave_object"],
            "aop.woven_methods": self.counters["aop.woven_methods"],
            "core.advice_calls": count["core.advice"],
            "core.advice_self_s": self_s["core.advice"],
            "core.agent_samples": count["core.agent_sample"],
            "core.agent_self_s": self_s["core.agent_sample"],
            "core.snapshot_self_s": self_s["core.snapshot"],
            "core.record_sample_calls": count["core.record_sample"],
            "core.root_cause_s": total_s["core.root_cause"],
            "core.rejuv_checks": count["core.rejuv_check"],
            "jmx.invoke_calls": count["jmx.invoke"],
            "jmx.invoke_self_s": self_s["jmx.invoke"],
            "jmx.invokes_per_request": count["jmx.invoke"] / requests if requests else 0.0,
            "jvm.allocate_calls": count["jvm.allocate"],
            "jvm.allocate_self_s": self_s["jvm.allocate"],
            "jvm.reachability_marks": marks,
            "jvm.marks_per_epoch": marks / len(self._epochs) if self._epochs else 0.0,
            "jvm.thread_scans": count["jvm.thread_scan"],
            "jvm.thread_scan_self_s": self_s["jvm.thread_scan"],
            "jvm.thread_spawns": count["jvm.thread_spawn"] - failures["jvm.thread_spawn"],
            "jvm.gc_collections": count["jvm.gc_collect"],
            "db.selects": selects,
            "db.select_self_s": self_s["db.select"],
            "db.select_us_p50": p(durations["db.select"], 50),
            "db.select_us_p99": p(durations["db.select"], 99),
            "db.updates": count["db.update"],
            "db.plan_compiles": count["db.plan_compile"],
            "db.plan_reuse_ratio": 1.0 - count["db.plan_compile"] / selects if selects else 0.0,
            "db.connection_failures": failures["db.get_connection"],
            "faults.injections": self.counters["faults.injections"],
            "slo.predictions": count["slo.predict"],
            "slo.self_s": layer_self["slo"],
            "obs.snapshots": count["obs.snapshot"],
            "obs.emit_self_s": layer_self["obs"],
            "experiments.routes": count["experiments.route"],
            "experiments.route_self_s": self_s["experiments.route"],
            "experiments.rulings": count["experiments.ruling"],
            "trace.attributed_s": attributed,
        }
        for layer in LAYERS:
            metrics[f"share.{layer}"] = layer_self[layer] / attributed if attributed else 0.0
        return metrics

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line (times from the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\trequest\tphase\terror\n")
            for index, span in enumerate(self.spans):
                out.write(
                    f"{index}\t{span[NAME]}\t{span[START] - origin:.9f}\t"
                    f"{span[END] - origin:.9f}\t{span[PARENT]}\t{span[REQUEST]}\t"
                    f"{'run' if span[PHASE] == RUN else 'setup'}\t{span[ERROR]}\n"
                )
