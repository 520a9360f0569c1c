"""JVM thread registry.

Thread leaks are one of the aging causes the paper lists as future work; the
extension benchmarks inject them, and the thread monitoring agent
(:mod:`repro.core.monitoring_agents`) reads counts from this registry, which
mimics ``java.lang.management.ThreadMXBean``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Tuple


class ThreadLimitError(RuntimeError):
    """Raised when the JVM cannot create another thread.

    The analogue of ``java.lang.OutOfMemoryError: unable to create new
    native thread`` — the OS/ulimit-level failure a thread leak eventually
    runs into.
    """


class ThreadState(enum.Enum):
    """Subset of ``java.lang.Thread.State`` relevant to the model."""

    NEW = "NEW"
    RUNNABLE = "RUNNABLE"
    WAITING = "WAITING"
    TIMED_WAITING = "TIMED_WAITING"
    BLOCKED = "BLOCKED"
    TERMINATED = "TERMINATED"


class JvmThread:
    """A simulated JVM thread."""

    _ids = itertools.count(1)

    __slots__ = (
        "thread_id",
        "name",
        "owner",
        "state",
        "daemon",
        "created_at",
        "stack_bytes",
        "stack_object",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        owner: Optional[str] = None,
        daemon: bool = False,
        created_at: float = 0.0,
        stack_bytes: int = 512 * 1024,
    ) -> None:
        if stack_bytes <= 0:
            raise ValueError(f"stack_bytes must be positive, got {stack_bytes}")
        self.thread_id = next(JvmThread._ids)
        self.name = name
        self.owner = owner
        self.state = ThreadState.NEW
        self.daemon = daemon
        self.created_at = float(created_at)
        self.stack_bytes = int(stack_bytes)
        #: Heap object pinning this thread's stack memory (``None`` unless
        #: the registry was asked to account the stack on the heap).
        self.stack_object = None
        #: The registry this thread was spawned into, told when it dies so
        #: its live counters stay exact however the thread is terminated.
        self._registry: Optional["ThreadRegistry"] = None

    def start(self) -> None:
        """Move the thread to RUNNABLE (mirrors ``Thread.start``)."""
        if self.state is not ThreadState.NEW:
            raise RuntimeError(f"thread {self.name!r} already started (state={self.state})")
        self.state = ThreadState.RUNNABLE

    def park(self, timed: bool = False) -> None:
        """Move the thread to a waiting state."""
        if self.state is ThreadState.TERMINATED:
            raise RuntimeError(f"thread {self.name!r} is terminated")
        self.state = ThreadState.TIMED_WAITING if timed else ThreadState.WAITING

    def unpark(self) -> None:
        """Return a waiting thread to RUNNABLE."""
        if self.state in (ThreadState.WAITING, ThreadState.TIMED_WAITING, ThreadState.BLOCKED):
            self.state = ThreadState.RUNNABLE

    def terminate(self) -> None:
        """Terminate the thread (a no-op on an already terminated one)."""
        if self.state is ThreadState.TERMINATED:
            return
        self.state = ThreadState.TERMINATED
        if self._registry is not None:
            self._registry._retire(self)

    @property
    def is_alive(self) -> bool:
        """Whether the thread has started and not yet terminated."""
        return self.state not in (ThreadState.NEW, ThreadState.TERMINATED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JvmThread(id={self.thread_id}, name={self.name!r}, state={self.state.value})"


class ThreadRegistry:
    """Registry of all threads in the simulated JVM (ThreadMXBean analogue).

    The thread monitoring agent reads ``count_by_owner`` on every sample, so
    every read is O(1): live threads are indexed by owner (insertion-ordered,
    i.e. by thread id) next to running live-count and stack-byte totals,
    which spawn and termination keep exact.

    Parameters
    ----------
    capacity:
        Maximum simultaneously live threads (the OS/ulimit bound a thread
        leak eventually hits); ``None`` means unlimited.  The rejuvenation
        controller's thread channel predicts exhaustion against this bound.
    heap:
        When given, threads spawned with ``pin_stack=True`` allocate their
        stack as a *pinned* (GC-root) heap object owned by the thread's
        owner, so leaked threads show up in the memory accounting exactly
        as the thread-leak fault's docstring promises — the collector can
        never reclaim a live thread's stack, only termination frees it.
    """

    def __init__(self, capacity: Optional[int] = None, heap=None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"thread capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity) if capacity is not None else None
        self._heap = heap
        #: Every registered thread, live or terminated-but-not-removed.
        self._threads: Dict[int, JvmThread] = {}
        self._live_by_owner: Dict[Optional[str], Dict[int, JvmThread]] = {}
        self._live_count = 0
        self._live_stack_bytes = 0
        self._peak_count = 0
        self._total_started = 0

    def spawn(
        self,
        name: str,
        owner: Optional[str] = None,
        daemon: bool = False,
        created_at: float = 0.0,
        stack_bytes: int = 512 * 1024,
        pin_stack: bool = False,
    ) -> JvmThread:
        """Create and start a new thread.

        Raises
        ------
        ThreadLimitError
            When ``capacity`` live threads already exist.
        repro.jvm.heap.OutOfMemoryError
            When ``pin_stack`` is set and the stack allocation does not fit.
        """
        if self.capacity is not None and self._live_count >= self.capacity:
            raise ThreadLimitError(
                f"unable to create new thread {name!r}: "
                f"{self._live_count} live threads at capacity {self.capacity}"
            )
        thread = JvmThread(
            name=name,
            owner=owner,
            daemon=daemon,
            created_at=created_at,
            stack_bytes=stack_bytes,
        )
        if pin_stack and self._heap is not None:
            thread.stack_object = self._heap.allocate(
                "java.lang.Thread[stack]",
                shallow_size=stack_bytes,
                owner=owner,
                timestamp=created_at,
                root=True,
            )
        thread.start()
        thread._registry = self
        self._threads[thread.thread_id] = thread
        self._live_by_owner.setdefault(owner, {})[thread.thread_id] = thread
        self._live_count += 1
        self._live_stack_bytes += thread.stack_bytes
        self._total_started += 1
        if self._live_count > self._peak_count:
            self._peak_count = self._live_count
        return thread

    def _retire(self, thread: JvmThread) -> None:
        """Drop a thread that just died from the live index and totals."""
        del self._live_by_owner[thread.owner][thread.thread_id]
        self._live_count -= 1
        self._live_stack_bytes -= thread.stack_bytes

    def _release_stack(self, thread: JvmThread) -> int:
        """Free a dead thread's pinned stack; returns the bytes released."""
        stack = thread.stack_object
        if stack is None or self._heap is None:
            return 0
        thread.stack_object = None
        if self._heap.is_live(stack):
            self._heap.free(stack)
            return stack.shallow_size
        return 0

    def terminate(self, thread: JvmThread) -> None:
        """Terminate a registered thread (releasing its pinned stack)."""
        if thread.thread_id not in self._threads:
            raise KeyError(f"thread {thread.thread_id} is not registered")
        thread.terminate()
        self._release_stack(thread)

    def terminate_owned(self, owner: str) -> Tuple[int, int]:
        """Terminate and drop every live thread of ``owner``.

        The thread half of a component micro-reboot: the recycled
        component's runaway threads die with it and their pinned stack
        memory is released.  Returns ``(threads_terminated, stack_bytes)``.
        """
        victims = list(self._live_by_owner.get(owner, {}).values())
        freed_bytes = 0
        for thread in victims:
            thread.terminate()
            freed_bytes += self._release_stack(thread)
            del self._threads[thread.thread_id]
        return len(victims), freed_bytes

    def remove_terminated(self) -> int:
        """Drop terminated threads from the registry; returns how many."""
        dead = [tid for tid, t in self._threads.items() if t.state is ThreadState.TERMINATED]
        for tid in dead:
            self._release_stack(self._threads[tid])
            del self._threads[tid]
        return len(dead)

    def live_count(self) -> int:
        """Number of live threads."""
        return self._live_count

    def count_by_owner(self, owner: str) -> int:
        """Number of live threads created on behalf of ``owner``."""
        return len(self._live_by_owner.get(owner, ()))

    def live_threads(self) -> List[JvmThread]:
        """All live threads (sorted by id)."""
        return sorted(
            (thread for owned in self._live_by_owner.values() for thread in owned.values()),
            key=lambda thread: thread.thread_id,
        )

    def stack_bytes_total(self) -> int:
        """Total stack memory of live threads."""
        return self._live_stack_bytes

    @property
    def peak_count(self) -> int:
        """Highest number of simultaneously live threads observed."""
        return self._peak_count

    @property
    def total_started(self) -> int:
        """Total threads ever started."""
        return self._total_started
