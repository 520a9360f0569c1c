"""Lockstep equivalence of the epoch-bound Aspect Component and the lookup path.

The live :class:`AspectComponent` binds its agent, manager and overhead
handles once per MBeanServer registration epoch; the seed reference looks
everything up through the MBeanServer on every advice.  Both are driven
through the same interleaving of registry changes, enable/disable switches
and woven calls, and must leave identical overhead, agent, manager and AC
state after every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aop.weaver import Weaver
from repro.core.aspect_component import AspectComponent
from repro.core.manager_agent import MANAGER_OBJECT_NAME, ManagerAgent
from repro.core.monitoring_agents import AGENT_DOMAIN, ObjectSizeAgent, default_agents
from repro.core.overhead import OverheadAccount
from repro.db.engine import Database
from repro.db.jdbc import DataSource
from repro.jmx.mbean import MBean, attribute, operation
from repro.jmx.mbean_server import MBeanServer
from repro.jmx.object_name import ObjectName
from repro.jvm.runtime import JvmRuntime
from repro.perf.seed_reference import SeedAspectComponent

#: Both manager slots match the AC's manager pattern; the backup sorts first.
MANAGER_NAMES = (MANAGER_OBJECT_NAME, ObjectName.of("repro.core", type="ManagerAgent", name="backup"))
#: Sorts between the heap and object-size agents, so a lookup reaches it mid-scan.
LEGACY_NAME = ObjectName.of(AGENT_DOMAIN, type="legacy")

ACTIONS = (
    "register_agent",
    "unregister_agent",
    "swap_agent",
    "toggle_agent",
    "register_manager",
    "unregister_manager",
    "toggle_ac",
    "register_legacy",
    "unregister_legacy",
    "service",
    "service",
    "service",
)


class _Clock:
    now = 1.0


class _Component:
    java_class_name = "org.tpcw.servlet.TPCW_home_interaction"

    def __init__(self, runtime: JvmRuntime) -> None:
        self.runtime = runtime
        self.root = runtime.allocate(self.java_class_name, 2048, owner="home", root=True)

    def service(self, leak_bytes: int) -> None:
        if leak_bytes:
            self.root.add_reference(self.runtime.allocate("Leak", leak_bytes, owner="home"))


class _RecordingManager(ManagerAgent):
    """Manager agent that also keeps every sample it was handed."""

    def __init__(self, server: MBeanServer) -> None:
        super().__init__(server)
        self.received = []

    @operation
    def record_sample(self, sample) -> None:
        self.received.append(sample)
        super().record_sample(sample)


class _LegacyAgent(MBean):
    """An MBean under the agent domain that has no ``sample`` operation."""

    @attribute
    def Version(self) -> str:
        return "1.0"


class _Side:
    """One monitored deployment driven by an AC of ``ac_class``."""

    def __init__(self, ac_class, clock: _Clock, with_manager: bool) -> None:
        runtime = JvmRuntime(heap_bytes=16 * 1024 * 1024)
        datasource = DataSource(Database("lockstep"), pool_size=4)
        self.server = MBeanServer()
        self.component = _Component(runtime)
        # Two interchangeable instances per agent type: slot 0 starts registered.
        self.agents = [default_agents(runtime, datasource) for _ in range(2)]
        for agent in self.agents[0] + self.agents[1]:
            if isinstance(agent, ObjectSizeAgent):
                agent.register_component("home", self.component.root)
        for agent in self.agents[0]:
            self.server.register(agent.object_name(), agent)
        self.current = [0] * len(self.agents[0])
        self.managers = [_RecordingManager(self.server) for _ in MANAGER_NAMES]
        if with_manager:
            self.server.register(MANAGER_NAMES[0], self.managers[0])
        self.legacy = _LegacyAgent()
        self.overhead = OverheadAccount(sample_cost_seconds=1e-3)
        self.ac = ac_class(
            "home", self.component.java_class_name, self.server, overhead=self.overhead, clock=clock
        )
        weaver = Weaver()
        weaver.register_aspect(self.ac)
        weaver.weave_object(self.component, method_names=["service"])

    def apply(self, action: str, index: int) -> None:
        server = self.server
        slot = index % len(self.current)
        agent = self.agents[self.current[slot]][slot]
        name = agent.object_name()
        if action == "register_agent" and not server.is_registered(name):
            server.register(name, agent)
        elif action == "unregister_agent" and server.is_registered(name):
            server.unregister(name)
        elif action == "swap_agent":
            if server.is_registered(name):
                server.unregister(name)
            self.current[slot] ^= 1
            server.register(name, self.agents[self.current[slot]][slot])
        elif action == "toggle_agent":
            agent.invoke("disable" if agent.get_attribute("Enabled") else "enable")
        elif action in ("register_manager", "unregister_manager"):
            manager_name = MANAGER_NAMES[index % len(MANAGER_NAMES)]
            registered = server.is_registered(manager_name)
            if action == "register_manager" and not registered:
                server.register(manager_name, self.managers[index % len(MANAGER_NAMES)])
            elif action == "unregister_manager" and registered:
                server.unregister(manager_name)
        elif action == "toggle_ac":
            if self.ac.enabled:
                self.ac.disable()
            else:
                self.ac.enable()
        elif action == "register_legacy" and not server.is_registered(LEGACY_NAME):
            server.register(LEGACY_NAME, self.legacy)
        elif action == "unregister_legacy" and server.is_registered(LEGACY_NAME):
            server.unregister(LEGACY_NAME)
        elif action == "service":
            self.component.service(256 * index)

    def state(self):
        overhead = self.overhead
        return {
            "overhead": (
                overhead.pending_seconds,
                overhead.total_seconds,
                overhead.by_component(),
                overhead.sample_count,
            ),
            "agent_samples": [
                [agent.get_attribute("SampleCount") for agent in slot] for slot in self.agents
            ],
            "manager_samples": [
                (manager.received, manager.map.sample_count) for manager in self.managers
            ],
            "ac": (
                self.ac.samples_sent,
                self.ac.invocation_count,
                self.ac.last_deltas,
                self.ac.last_values,
            ),
        }


def _outcome(side: _Side, action: str, index: int):
    try:
        side.apply(action, index)
    except Exception as exc:  # compared by type across the two sides
        return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(
    with_manager=st.booleans(),
    steps=st.lists(
        st.tuples(st.sampled_from(ACTIONS), st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=40,
    ),
)
def test_epoch_bound_ac_matches_lookup_path(with_manager, steps):
    clock = _Clock()
    live = _Side(AspectComponent, clock, with_manager)
    seed = _Side(SeedAspectComponent, clock, with_manager)
    for step, (action, index) in enumerate(steps):
        clock.now = 1.0 + step
        assert _outcome(live, action, index) == _outcome(seed, action, index)
        assert live.state() == seed.state()


def test_lockstep_covers_failing_lookup_and_manager_stickiness():
    """A fixed walk through the cases the property test must be able to reach."""
    clock = _Clock()
    sides = [_Side(cls, clock, with_manager=False) for cls in (AspectComponent, SeedAspectComponent)]
    steps = [
        ("service", 1),
        ("register_manager", 0),
        ("service", 2),
        ("register_manager", 1),
        ("service", 0),
        ("register_legacy", 0),
        ("service", 3),
        ("unregister_legacy", 0),
        ("swap_agent", 3),
        ("toggle_agent", 1),
        ("unregister_manager", 0),
        ("service", 4),
    ]
    outcomes = []
    for step, (action, index) in enumerate(steps):
        clock.now = 1.0 + step
        results = [_outcome(side, action, index) for side in sides]
        assert results[0] == results[1]
        outcomes.append(results[0])
        assert sides[0].state() == sides[1].state()
    live = sides[0]
    assert outcomes[6] is not None  # the legacy MBean broke the advice
    # No manager on the first call; the primary keeps the samples while the
    # backup (sorting first) is also registered; the backup takes over after.
    assert [len(manager.received) for manager in live.managers] == [2, 1]
