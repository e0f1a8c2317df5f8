"""Executor abstraction: where and how work units actually run.

The scheduler speaks one protocol -- ``submit(WorkUnit)`` then
``poll()`` for events -- and three executors implement it:

* :class:`InlineExecutor` -- every cell in-process (pure, debuggable,
  no forks; the ``workers == 1`` path).
* :class:`ProcessPoolFabricExecutor` -- a
  :class:`~concurrent.futures.ProcessPoolExecutor` with crash
  recovery: a dead worker (OOM, segfault, SIGKILL) surfaces as
  ``UnitFailed`` events for the in-flight units and a fresh pool,
  never as an exception that aborts the campaign.
* :class:`LocalWorkerFabricExecutor` -- N long-lived worker processes
  the executor owns outright, fed one unit at a time over per-worker
  queues with per-cell progress reporting.  This is the shape of
  multi-machine dispatch: the parent knows exactly which unit each
  worker holds, detects death by liveness (not by a shared pool
  breaking), enforces per-cell timeouts by killing the worker, and
  requeues only the cells the worker never reported.

Executors never decide policy: they report what happened and the
scheduler owns retries, error records and checkpointing.

Every ``pool`` and ``spawn`` worker process sizes the BLAS thread pool
it inherits to its share of the cores, ``max(1, cores // workers)``
(:func:`limit_blas_threads`).  A forked worker otherwise keeps an
OpenBLAS pool sized to every core, so N workers run N x cores BLAS
threads on the cores and fight over them: on a 2-vCPU VM with 2 pool
workers the smoke-scale paper grid's 36 ``qoe`` cells took 24.15 s
summed, and 13.29 s with one BLAS thread per worker (11.5 - 12.8 s
inline).  The limit is applied at run time through each mapped
OpenBLAS library's ``set_num_threads`` entry point, because the
workers are forked after numpy has loaded OpenBLAS and read its
environment.  The ``inline`` executor and in-process callers keep the
default threads.

Every such worker also ends itself once its campaign parent is gone
(:func:`worker_start`).  A SIGKILLed parent runs no cleanup, so its
workers would otherwise be reparented to init and stay parked on their
queues forever.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import multiprocessing

from ...errors import CampaignError
from ..runner import execute_cell, execute_unit


#: Where a Linux process lists the files it has mapped.
PROC_MAPS = "/proc/self/maps"

#: Seconds between a worker's checks that its campaign parent lives.
ORPHAN_CHECK_S = 0.5

#: OpenBLAS thread-count entry points, ``{verb}`` being ``set`` or
#: ``get``, most specific first: scipy-openblas wheels (numpy's ILP64
#: build, scipy's LP64 one), then older wheels' plain names.
_OPENBLAS_ENTRY_POINTS = (
    "scipy_openblas_{verb}_num_threads64_",
    "scipy_openblas_{verb}_num_threads",
    "openblas_{verb}_num_threads64_",
    "openblas_{verb}_num_threads",
)


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask if known)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def worker_blas_threads(workers: int) -> int:
    """BLAS threads per worker when ``workers`` share the usable cores."""
    return max(1, usable_cores() // max(1, workers))


def _entry_point(library: Any, verb: str) -> Optional[Callable[..., Any]]:
    """The library's ``{verb}_num_threads`` function, if it exports one."""
    for symbol in _OPENBLAS_ENTRY_POINTS:
        function = getattr(library, symbol.format(verb=verb), None)
        if function is not None:
            return function
    return None


def openblas_libraries() -> List[Tuple[str, Callable[..., Any],
                                       Callable[..., Any]]]:
    """``(file name, get_num_threads, set_num_threads)`` per mapped OpenBLAS.

    Reads the libraries this process has already mapped; it never loads
    one.  Empty where there is no OpenBLAS or no ``/proc``.
    """
    try:
        with open(PROC_MAPS, encoding="utf-8", errors="replace") as maps:
            paths = [line.split(None, 5)[-1].strip() for line in maps]
    except OSError:
        return []
    found = []
    for path in dict.fromkeys(paths):
        name = os.path.basename(path)
        if "openblas" not in name.lower() or ".so" not in name:
            continue
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        get_threads = _entry_point(library, "get")
        set_threads = _entry_point(library, "set")
        if get_threads is not None and set_threads is not None:
            found.append((name, get_threads, set_threads))
    return found


def limit_blas_threads(workers: int) -> "Tuple[int, Tuple[str, ...]]":
    """Size this process's OpenBLAS pools to its share of the cores.

    Runs first in every ``pool`` and ``spawn`` worker, through
    :func:`worker_start`.  Returns the thread count and the file names
    of the libraries now held to it; a process with no OpenBLAS mapped
    is left alone.
    """
    threads = worker_blas_threads(workers)
    limited = []
    for name, get_threads, set_threads in openblas_libraries():
        # In a forked child any set call restarts the library's thread
        # server, whose idle threads spin ~0.1 s before they sleep.
        if get_threads() != threads:
            set_threads(threads)
        limited.append(name)
    return threads, tuple(limited)


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(ORPHAN_CHECK_S)
    os._exit(1)


def worker_start(workers: int, parent_pid: int) -> None:
    """Run first in every ``pool`` and ``spawn`` worker process.

    Limits BLAS to the worker's share of the cores and starts a daemon
    thread that exits the worker within :data:`ORPHAN_CHECK_S` of its
    parent ``parent_pid`` dying.  The parent passes its own pid: one
    read here would already be init's if the parent died while this
    worker was starting.
    """
    limit_blas_threads(workers)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent_pid,),
        name="orphan-check", daemon=True,
    ).start()


@dataclass(frozen=True)
class WorkUnit:
    """One shard of the grid: the unit executors dispatch and retry."""

    unit_id: int
    payloads: "tuple[Dict[str, Any], ...]"


@dataclass(frozen=True)
class CellDone:
    """One cell finished (ok or error-status record payload)."""

    unit_id: int
    result: Dict[str, Any]


@dataclass(frozen=True)
class UnitFailed:
    """A unit's executor died under it (crash/timeout), not the cell.

    ``pending`` holds the payloads that produced no result; the
    scheduler requeues or error-records them by retry budget.

    ``worker_death`` marks failures where the worker *executing this
    unit* actually died (crash or timeout-kill), as opposed to
    collateral damage (a shared pool resetting under an innocent unit)
    or an orderly abandon.  The scheduler's poison-cell accounting
    attributes a kill to the unit's first unfinished cell only when
    this is set, so innocents never accumulate kills toward
    quarantine.
    """

    unit_id: int
    pending: "tuple[Dict[str, Any], ...]"
    reason: str
    worker_death: bool = False


Event = Any


class ExecutorBase:
    """Common surface: submit units, poll events, shut down."""

    name = "base"

    def __init__(self, workers: int = 1,
                 cell_timeout_s: Optional[float] = None) -> None:
        self.workers = max(1, int(workers))
        self.cell_timeout_s = cell_timeout_s

    def start(self) -> None:
        """Allocate worker resources."""

    def submit(self, unit: WorkUnit) -> None:
        """Enqueue one unit for execution."""
        raise NotImplementedError

    def poll(self, timeout: float = 0.25) -> List[Event]:
        """Wait up to ``timeout`` seconds and return new events."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Units submitted but not yet fully reported."""
        raise NotImplementedError

    def abandon(self) -> List["UnitFailed"]:
        """Surrender every queued and in-flight unit.

        Returns one ``UnitFailed`` per surrendered unit (with
        ``worker_death=False`` -- this is an orderly handoff, not a
        crash) and forgets them, so the scheduler can resubmit the
        pending payloads elsewhere.  Used by the crash-loop breaker
        when it degrades a dying executor to ``inline``.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (idempotent)."""


class InlineExecutor(ExecutorBase):
    """Run every cell in the calling process."""

    name = "inline"

    def __init__(self, workers: int = 1,
                 cell_timeout_s: Optional[float] = None) -> None:
        super().__init__(workers=1, cell_timeout_s=cell_timeout_s)
        self._queue: Deque[WorkUnit] = deque()

    def submit(self, unit: WorkUnit) -> None:
        self._queue.append(unit)

    def poll(self, timeout: float = 0.25) -> List[Event]:
        if not self._queue:
            return []
        unit = self._queue.popleft()
        return [
            CellDone(unit.unit_id, execute_cell(payload))
            for payload in unit.payloads
        ]

    def outstanding(self) -> int:
        return len(self._queue)

    def abandon(self) -> List[UnitFailed]:
        events = [
            UnitFailed(unit.unit_id, unit.payloads, "executor abandoned")
            for unit in self._queue
        ]
        self._queue.clear()
        return events


@dataclass
class _TrackedFuture:
    unit: WorkUnit
    running_since: Optional[float] = None


class ProcessPoolFabricExecutor(ExecutorBase):
    """Process-pool execution with worker-crash recovery.

    ``concurrent.futures`` poisons *every* outstanding future with
    :class:`BrokenProcessPool` when any worker dies; this executor
    converts that into per-unit ``UnitFailed`` events and transparently
    rebuilds the pool, so one OOM-killed cell costs one retry, not a
    48-hour campaign.
    """

    name = "pool"

    def __init__(self, workers: int = 2,
                 cell_timeout_s: Optional[float] = None) -> None:
        super().__init__(workers=workers, cell_timeout_s=cell_timeout_s)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Any, _TrackedFuture] = {}

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=worker_start,
                initargs=(self.workers, os.getpid()),
            )

    def submit(self, unit: WorkUnit) -> None:
        self.start()
        future = self._pool.submit(execute_unit, list(unit.payloads))
        self._futures[future] = _TrackedFuture(unit)

    def _fail_outstanding(self, reason: str,
                          death_ids: "frozenset[int]" = frozenset()
                          ) -> List[Event]:
        # Only the units whose worker actually died (``death_ids``)
        # carry worker_death; the rest are collateral of the shared
        # pool resetting and must not count toward poison quarantine.
        events: List[Event] = [
            UnitFailed(t.unit.unit_id, t.unit.payloads, reason,
                       worker_death=t.unit.unit_id in death_ids)
            for t in self._futures.values()
        ]
        self._futures.clear()
        return events

    def _rebuild_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # Reach into the pool to kill stuck workers before the
            # fresh pool starts; shutdown() alone would block on (or
            # leak) a worker that is looping or hung.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.kill()
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        self.start()

    def poll(self, timeout: float = 0.25) -> List[Event]:
        if not self._futures:
            return []
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        events: List[Event] = []
        broken = False
        for future in done:
            tracked = self._futures.pop(future)
            unit = tracked.unit
            try:
                results = future.result()
            except BrokenProcessPool:
                broken = True
                events.append(
                    UnitFailed(unit.unit_id, unit.payloads,
                               "worker process died", worker_death=True)
                )
            except Exception as exc:  # noqa: BLE001 - executor fault
                events.append(
                    UnitFailed(unit.unit_id, unit.payloads,
                               f"executor failure: {exc}")
                )
            else:
                events.extend(
                    CellDone(unit.unit_id, result) for result in results
                )
        if broken:
            events.extend(self._fail_outstanding("worker process died"))
            self._rebuild_pool()
            return events
        if self.cell_timeout_s is not None:
            now = time.monotonic()
            expired: "set[int]" = set()
            for future, tracked in self._futures.items():
                if future.running() and tracked.running_since is None:
                    tracked.running_since = now
                if (
                    tracked.running_since is not None
                    and now - tracked.running_since > self.cell_timeout_s
                ):
                    expired.add(tracked.unit.unit_id)
            if expired:
                # One shared pool: killing the stuck worker kills the
                # pool, so every in-flight unit restarts on the fresh
                # one (their completed cells were already reported).
                # Only the expired units count as worker deaths.
                events.extend(self._fail_outstanding(
                    f"cell timeout after {self.cell_timeout_s:.1f}s "
                    "(pool reset)", death_ids=frozenset(expired)
                ))
                self._rebuild_pool()
        return events

    def outstanding(self) -> int:
        return len(self._futures)

    def abandon(self) -> List[UnitFailed]:
        events = [
            UnitFailed(t.unit.unit_id, t.unit.payloads,
                       "executor abandoned")
            for t in self._futures.values()
        ]
        self._futures.clear()
        return events

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._futures.clear()


def _local_worker_main(worker_id: int, task_queue, result_queue,
                       workers: int, parent_pid: int) -> None:
    """Worker loop: pull a unit, report per-cell progress, repeat.

    Runs in a child process, one of ``workers``.  The ``claim`` message
    before each cell is what lets the parent requeue precisely the
    unreported cells when this process dies mid-unit.
    """
    worker_start(workers, parent_pid)
    while True:
        item = task_queue.get()
        if item is None:
            break
        unit_id, payloads = item
        for payload in payloads:
            result_queue.put(("claim", worker_id, unit_id,
                              payload["cell_id"]))
            record = execute_cell(payload)
            result_queue.put(("done", worker_id, unit_id, record))
        result_queue.put(("unit-done", worker_id, unit_id, None))


@dataclass
class _WorkerSlot:
    worker_id: int
    process: Any
    task_queue: Any
    unit: Optional[WorkUnit] = None
    reported: "set[str]" = field(default_factory=set)
    last_progress: float = 0.0


class LocalWorkerFabricExecutor(ExecutorBase):
    """N owned worker processes fed one unit at a time.

    Models multi-machine dispatch locally: explicit per-worker
    assignment (the parent always knows which unit each worker holds),
    liveness-based crash detection, per-cell timeouts enforced by
    killing the worker, and a replacement worker spawned in its slot.
    """

    name = "spawn"

    def __init__(self, workers: int = 2,
                 cell_timeout_s: Optional[float] = None) -> None:
        super().__init__(workers=workers, cell_timeout_s=cell_timeout_s)
        self._ctx = multiprocessing.get_context()
        self._result_queue = None
        self._slots: List[_WorkerSlot] = []
        self._pending: Deque[WorkUnit] = deque()
        self._next_worker_id = 0

    def start(self) -> None:
        if self._result_queue is None:
            # A SimpleQueue writes in the worker's own thread, so the
            # shared write lock is free again before the next cell
            # runs.  A Queue's feeder thread can still hold it when a
            # cell SIGKILLs its worker, and every other worker's
            # results then block on the dead worker's lock forever.
            self._result_queue = self._ctx.SimpleQueue()
            self._slots = [self._spawn_slot() for _ in range(self.workers)]

    def _spawn_slot(self) -> _WorkerSlot:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_local_worker_main,
            args=(worker_id, task_queue, self._result_queue, self.workers,
                  os.getpid()),
            daemon=True,
        )
        process.start()
        return _WorkerSlot(worker_id=worker_id, process=process,
                           task_queue=task_queue)

    def _slot_by_worker(self, worker_id: int) -> Optional[_WorkerSlot]:
        for slot in self._slots:
            if slot.worker_id == worker_id:
                return slot
        return None  # a replaced worker's stale message

    def submit(self, unit: WorkUnit) -> None:
        self.start()
        self._pending.append(unit)
        self._dispatch()

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.unit is None and slot.process.is_alive():
                unit = self._pending.popleft()
                slot.unit = unit
                slot.reported = set()
                slot.last_progress = time.monotonic()
                slot.task_queue.put((unit.unit_id, list(unit.payloads)))

    def _drain(self, timeout: float) -> List[Event]:
        events: List[Event] = []
        results = self._result_queue
        # SimpleQueue.get has no timeout; wait on its read end, as
        # concurrent.futures.process does.
        if not results._reader.poll(timeout):
            return events
        while not results.empty():
            tag, worker_id, unit_id, body = results.get()
            slot = self._slot_by_worker(worker_id)
            if tag == "claim":
                if slot is not None:
                    slot.last_progress = time.monotonic()
            elif tag == "done":
                events.append(CellDone(unit_id, body))
                if slot is not None:
                    slot.reported.add(body["cell_id"])
                    slot.last_progress = time.monotonic()
            elif tag == "unit-done":
                if slot is not None and slot.unit is not None \
                        and slot.unit.unit_id == unit_id:
                    slot.unit = None
        return events

    def poll(self, timeout: float = 0.25) -> List[Event]:
        self.start()
        events = self._drain(timeout)
        now = time.monotonic()
        for index, slot in enumerate(self._slots):
            reason = None
            if not slot.process.is_alive():
                reason = "worker process died"
            elif (
                slot.unit is not None
                and self.cell_timeout_s is not None
                and now - slot.last_progress > self.cell_timeout_s
            ):
                reason = (
                    f"cell timeout after {self.cell_timeout_s:.1f}s "
                    "(worker killed)"
                )
                slot.process.kill()
                slot.process.join(timeout=5.0)
            if reason is None:
                continue
            if slot.unit is not None:
                pending = tuple(
                    payload for payload in slot.unit.payloads
                    if payload["cell_id"] not in slot.reported
                )
                # This worker owned the unit outright, so both death
                # and timeout-kill are real worker deaths; cells run
                # in order, so pending[0] is the cell it died under.
                events.append(
                    UnitFailed(slot.unit.unit_id, pending, reason,
                               worker_death=True)
                )
            self._slots[index] = self._spawn_slot()
        self._dispatch()
        return events

    def outstanding(self) -> int:
        return len(self._pending) + sum(
            1 for slot in self._slots if slot.unit is not None
        )

    def abandon(self) -> List[UnitFailed]:
        events = [
            UnitFailed(unit.unit_id, unit.payloads, "executor abandoned")
            for unit in self._pending
        ]
        self._pending.clear()
        for slot in self._slots:
            if slot.unit is None:
                continue
            pending = tuple(
                payload for payload in slot.unit.payloads
                if payload["cell_id"] not in slot.reported
            )
            events.append(
                UnitFailed(slot.unit.unit_id, pending,
                           "executor abandoned")
            )
            slot.unit = None
        return events

    def shutdown(self) -> None:
        for slot in self._slots:
            if slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
        for slot in self._slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
        self._slots = []
        self._pending.clear()
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None


#: executor name -> class; ``auto`` resolves by worker count.
EXECUTORS = {
    InlineExecutor.name: InlineExecutor,
    ProcessPoolFabricExecutor.name: ProcessPoolFabricExecutor,
    LocalWorkerFabricExecutor.name: LocalWorkerFabricExecutor,
}


def resolve_executor(name: str, workers: int) -> str:
    """The executor name a run uses (``auto`` picks by worker count)."""
    if name == "auto":
        name = InlineExecutor.name if workers <= 1 \
            else ProcessPoolFabricExecutor.name
    if name not in EXECUTORS:
        raise CampaignError(
            f"unknown executor {name!r}; expected one of "
            f"{('auto',) + tuple(EXECUTORS)}"
        )
    return name


def make_executor(name: str, workers: int,
                  cell_timeout_s: Optional[float] = None) -> ExecutorBase:
    """Build the executor for a run (``auto`` picks by worker count)."""
    cls = EXECUTORS[resolve_executor(name, workers)]
    return cls(workers=workers, cell_timeout_s=cell_timeout_s)


def describe_worker_blas(name: str, workers: int) -> str:
    """One line: the BLAS threads each worker of a run gets, and where.

    Workers are forked from this process, so the OpenBLAS libraries it
    has mapped are the ones :func:`limit_blas_threads` limits in them.
    """
    if resolve_executor(name, workers) == InlineExecutor.name:
        return "blas: cells run inline with the default BLAS threads"
    workers = max(1, workers)
    libraries = [library for library, _, _ in openblas_libraries()]
    if not libraries:
        return (f"blas: no OpenBLAS library found; {workers} workers keep "
                "the default BLAS threads")
    return (f"blas: each of {workers} workers limited to "
            f"{worker_blas_threads(workers)} BLAS thread(s) in "
            f"{', '.join(libraries)}")
