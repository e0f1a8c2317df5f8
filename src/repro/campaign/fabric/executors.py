"""Executor abstraction: where and how cells actually run.

The scheduler speaks one protocol -- ``submit(payload)`` then
``poll()`` for events -- and two executors implement it:

* :class:`InlineExecutor` -- every cell in-process (pure, debuggable,
  no forks; the ``workers == 1`` path).
* :class:`WorkerPoolExecutor` (``pool``) -- N long-lived worker
  processes the executor owns outright, each fed one cell at a time
  over its own queue.  The parent knows exactly which cell each worker
  holds, detects death by liveness, enforces per-cell timeouts by
  killing that one worker, and fails only the cell the dead worker
  held.

Executors never decide policy: they report what happened and the
scheduler owns retries, error records and checkpointing.

Every ``pool`` worker process sizes the BLAS thread pool it inherits
to its share of the cores, ``max(1, cores // workers)``
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
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import multiprocessing

from ...errors import CampaignError
from ..runner import execute_cell


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

    Runs first in every ``pool`` worker, through
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
    """Run first in every ``pool`` worker process.

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
class CellDone:
    """One cell finished (ok or error-status record payload)."""

    result: Dict[str, Any]


@dataclass(frozen=True)
class CellFailed:
    """A cell's executor failed under it (crash/timeout), not the cell.

    ``payload`` produced no result; the scheduler requeues or
    error-records it by retry budget.

    ``worker_death`` marks failures where the worker running this cell
    died (crash or timeout-kill), as opposed to an orderly abandon.
    The scheduler's poison-cell accounting counts only these, so an
    abandoned cell never accumulates kills toward quarantine.
    """

    payload: Dict[str, Any]
    reason: str
    worker_death: bool = False


Event = Any


class ExecutorBase:
    """Common surface: submit cells, poll events, shut down."""

    name = "base"

    def __init__(self, workers: int = 1,
                 cell_timeout_s: Optional[float] = None) -> None:
        self.workers = max(1, int(workers))
        self.cell_timeout_s = cell_timeout_s

    def start(self) -> None:
        """Allocate worker resources."""

    def submit(self, payload: Dict[str, Any]) -> None:
        """Enqueue one cell payload for execution."""
        raise NotImplementedError

    def poll(self, timeout: float = 0.25) -> List[Event]:
        """Wait up to ``timeout`` seconds and return new events."""
        raise NotImplementedError

    def outstanding(self) -> int:
        """Cells submitted but not yet reported."""
        raise NotImplementedError

    def abandon(self) -> List[CellFailed]:
        """Surrender every queued and in-flight cell.

        Returns one ``CellFailed`` per surrendered cell (with
        ``worker_death=False`` -- this is an orderly handoff, not a
        crash) and forgets them, so the scheduler can resubmit the
        payloads elsewhere.  Used by the crash-loop breaker when it
        degrades a dying executor to ``inline``.
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
        self._queue: Deque[Dict[str, Any]] = deque()

    def submit(self, payload: Dict[str, Any]) -> None:
        self._queue.append(payload)

    def poll(self, timeout: float = 0.25) -> List[Event]:
        if not self._queue:
            return []
        return [CellDone(execute_cell(self._queue.popleft()))]

    def outstanding(self) -> int:
        return len(self._queue)

    def abandon(self) -> List[CellFailed]:
        events = [
            CellFailed(payload, "executor abandoned")
            for payload in self._queue
        ]
        self._queue.clear()
        return events


def _worker_main(worker_id: int, task_queue, result_queue,
                 workers: int, parent_pid: int) -> None:
    """Worker loop: take one cell, send back its record, repeat.

    Runs in a child process, one of ``workers``.
    """
    worker_start(workers, parent_pid)
    while True:
        payload = task_queue.get()
        if payload is None:
            break
        result_queue.put((worker_id, execute_cell(payload)))


@dataclass
class _WorkerSlot:
    worker_id: int
    process: Any
    task_queue: Any
    payload: Optional[Dict[str, Any]] = None
    started: float = 0.0


class WorkerPoolExecutor(ExecutorBase):
    """N owned worker processes, each fed one cell at a time.

    The parent always knows which cell each worker holds, so a worker
    that dies, or that it kills for overrunning ``cell_timeout_s``,
    fails that one cell and no other.  A replacement worker is spawned
    in its slot.
    """

    name = "pool"

    def __init__(self, workers: int = 2,
                 cell_timeout_s: Optional[float] = None) -> None:
        super().__init__(workers=workers, cell_timeout_s=cell_timeout_s)
        self._ctx = multiprocessing.get_context()
        self._result_queue = None
        self._slots: List[_WorkerSlot] = []
        self._pending: Deque[Dict[str, Any]] = deque()
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
            target=_worker_main,
            args=(worker_id, task_queue, self._result_queue, self.workers,
                  os.getpid()),
            daemon=True,
        )
        process.start()
        return _WorkerSlot(worker_id=worker_id, process=process,
                           task_queue=task_queue)

    def submit(self, payload: Dict[str, Any]) -> None:
        self.start()
        self._pending.append(payload)
        self._dispatch()

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.payload is None and slot.process.is_alive():
                slot.payload = self._pending.popleft()
                slot.started = time.monotonic()
                slot.task_queue.put(slot.payload)

    def _drain(self, timeout: float) -> List[Event]:
        events: List[Event] = []
        results = self._result_queue
        # SimpleQueue.get has no timeout; wait on its read end, as
        # concurrent.futures.process does.
        if not results._reader.poll(timeout):
            return events
        while not results.empty():
            worker_id, record = results.get()
            events.append(CellDone(record))
            for slot in self._slots:
                if slot.worker_id == worker_id:
                    slot.payload = None
        return events

    def poll(self, timeout: float = 0.25) -> List[Event]:
        self.start()
        events = self._drain(timeout)
        now = time.monotonic()
        for index, slot in enumerate(self._slots):
            if not slot.process.is_alive():
                reason = "worker process died"
            elif (
                slot.payload is not None
                and self.cell_timeout_s is not None
                and now - slot.started > self.cell_timeout_s
            ):
                reason = (
                    f"cell timeout after {self.cell_timeout_s:.1f}s "
                    "(worker killed)"
                )
                slot.process.kill()
                slot.process.join(timeout=5.0)
            else:
                continue
            # A record the worker sent before it died is in the pipe
            # by now; it settles the cell instead of a failure.
            events.extend(self._drain(0.0))
            if slot.payload is not None:
                events.append(
                    CellFailed(slot.payload, reason, worker_death=True)
                )
            self._slots[index] = self._spawn_slot()
        self._dispatch()
        return events

    def outstanding(self) -> int:
        return len(self._pending) + sum(
            1 for slot in self._slots if slot.payload is not None
        )

    def abandon(self) -> List[CellFailed]:
        in_flight = [slot.payload for slot in self._slots
                     if slot.payload is not None]
        events = [
            CellFailed(payload, "executor abandoned")
            for payload in list(self._pending) + in_flight
        ]
        self._pending.clear()
        for slot in self._slots:
            slot.payload = None
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
    WorkerPoolExecutor.name: WorkerPoolExecutor,
}


def resolve_executor(name: str, workers: int) -> str:
    """The executor name a run uses (``auto`` picks by worker count)."""
    if name == "auto":
        name = InlineExecutor.name if workers <= 1 \
            else WorkerPoolExecutor.name
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
