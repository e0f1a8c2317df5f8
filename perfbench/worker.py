"""One benchmark process: set up, warm up, run the closed loop, check.

Started by ``run.py`` from a fresh interpreter.  ``--role probe`` stops
once set-up is done and reports its set-up time (``run.py`` takes the
median over several processes); ``--role main`` then runs the timed
closed loop for ``--seconds``, re-runs its first op with the original
seed, records the environment and writes one JSON result to ``--out``.

With ``--trace 1`` the loop runs for 1.5 times the run length and
alternates whole input cycles untraced and traced by
:class:`tracing.Tracer`.  The traced ops give the per-layer metrics;
the ratio of the two phases' ``ops_per_s`` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, check_predictions  # noqa: E402
from workloads import WORKLOADS, OpResult, Workload, digest_of  # noqa: E402

#: Seconds :func:`speed_probe` takes on the reference machine, a 2-vCPU
#: x86 VM.  Set-up times, and the op walls of workloads that normalise,
#: are rescaled to that machine's speed: wall x PROBE_REF_S / (probe
#: time measured right after the wall).  On a shared host the probe and
#: the op slow down together, which cancels most of the run-to-run
#: drift of raw walls.
PROBE_REF_S = 0.0185

#: Environment variables that size BLAS/OpenMP thread pools.  Recorded,
#: never set: oversubscribing two cores is program behaviour to measure.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now.

    Pure Python on purpose: BLAS thread settings, which the program may
    change, must not move the probe.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def probe_for(seconds: float) -> float:
    """Median of speed probes run for ``seconds`` (at least one probe)."""
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(speed_probe())
    return statistics.median(times)


@dataclass
class Phase:
    """Walls, speed probes and checked results of one closed-loop phase."""

    walls: List[float] = field(default_factory=list)
    results: List[OpResult] = field(default_factory=list)
    #: Speed probe right after each op (untraced runs only).
    probes: List[float] = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(result.units for result in self.results)

    @property
    def ops_per_s(self) -> float:
        return self.units / sum(self.walls)

    @property
    def normalised_walls(self) -> List[float]:
        return [wall * PROBE_REF_S / probe
                for wall, probe in zip(self.walls, self.probes)]


def run_op(workload: Workload, index: int,
           tracer: Optional[Tracer] = None) -> "tuple[float, OpResult]":
    """Prepare, time and check one op; an exception fails all its units.

    With a ``tracer``, only the timed call runs traced.
    """
    prepared = workload.prepare(index)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        output = workload.run(prepared)
    except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
        return time.perf_counter() - start, failed_op(workload, prepared,
                                                      f"op {index}", exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    return wall, checked_op(workload, index, prepared, output)


def failed_op(workload: Workload, prepared: Any, what: str,
              exc: Exception) -> OpResult:
    units = workload.units(prepared)
    return OpResult(units=units, failed=units, digest="raised",
                    problems=[f"{what} raised {exc!r}"])


def checked_op(workload: Workload, index: int, prepared: Any,
               output: Any) -> OpResult:
    """The op's checked result; a check that raises fails the op."""
    try:
        return workload.check(index, prepared, output)
    except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
        return failed_op(workload, prepared, f"check of op {index}", exc)


def closed_loop(workload: Workload, seconds: float,
                tracer: Optional[Tracer] = None
                ) -> "tuple[Phase, Phase, List[OpResult]]":
    """Run ops back to back until ``seconds`` of wall time have passed.

    Returns the untraced and traced phases and every result in op
    order.  Without a tracer every op is untraced and, if the workload
    normalises, followed by speed probes for a tenth of its wall time.
    With one, whole
    cycles of the workload's inputs alternate untraced / traced (at
    least one of each), so both phases see every input and the same
    machine, and their ``ops_per_s`` ratio is the tracing overhead
    rather than drift between two stretches of time.
    """
    untraced, traced = Phase(), Phase()
    in_order: List[OpResult] = []
    start = time.monotonic()
    index = 0
    minimum = workload.cycle + 1 if tracer is not None else 1
    while index < minimum or time.monotonic() - start < seconds:
        trace_this = tracer is not None and (index // workload.cycle) % 2
        wall, result = run_op(workload, index, tracer if trace_this else None)
        phase = traced if trace_this else untraced
        phase.walls.append(wall)
        phase.results.append(result)
        in_order.append(result)
        if tracer is None and workload.normalise:
            phase.probes.append(probe_for(0.1 * wall))
        if trace_this:
            # The op's check reaped its pool workers, so their dumps
            # are on disk.
            tracer.merge_worker_dumps()
        index += 1
    return untraced, traced, in_order


def tail_rank(samples: int, percentile: int) -> int:
    """1-based nearest rank of ``percentile`` among ``samples`` values."""
    return max(1, math.ceil(percentile / 100.0 * samples))


def timing_metrics(walls: List[float], units: int,
                   percentile: int) -> Dict[str, float]:
    """op_p50_s, op_tail_s (nearest-rank ``percentile``) and ops_per_s."""
    ordered = sorted(walls)
    return {
        "op_p50_s": statistics.median(ordered),
        "op_tail_s": ordered[tail_rank(len(ordered), percentile) - 1],
        "ops_per_s": units / sum(ordered),
    }


def calibration() -> Dict[str, float]:
    """Fixed pure-Python and numpy loop times (medians, seconds)."""
    import numpy as np

    def numpy_loop() -> None:
        a = np.random.default_rng(0).standard_normal((192, 192))
        for _ in range(120):
            a = np.tanh(a @ a.T / 192.0)

    times = []
    for _ in range(3):
        start = time.perf_counter()
        numpy_loop()
        times.append(time.perf_counter() - start)
    return {
        "python_s": statistics.median(speed_probe() for _ in range(5)),
        "numpy_s": statistics.median(times),
        "python_reference_s": PROBE_REF_S,
    }


def environment(workload: Workload) -> Dict[str, Any]:
    """Versions, core count and thread settings the run measured under."""
    import numpy
    import scipy

    blas: Any = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "pool_workers": getattr(workload, "workers", None),
        "calibration": calibration(),
    }


def peak_rss_mb() -> "tuple[float, float]":
    """Peak RSS of this process and of its largest reaped child, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return self_kb / 1024.0, child_kb / 1024.0


def campaign_means(phase: Phase) -> Dict[str, float]:
    """Per-op means of the campaign figures the grid's checks computed."""
    keys = sorted({key for result in phase.results for key in result.extra})
    return {key: statistics.fmean(result.extra.get(key, 0.0)
                                  for result in phase.results)
            for key in keys}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "main"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    work_dir = os.path.join(args.tmp, f"{args.role}-{os.getpid()}")
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.setup()
    prepared, output = workload.warm_up()
    setup_wall = time.monotonic() - args.t0
    probe = probe_for(0.2)
    result: Dict[str, Any] = {"setup_s": setup_wall * PROBE_REF_S / probe,
                              "setup_wall_s": setup_wall}
    if args.role == "probe":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0

    checked: List[OpResult] = [checked_op(workload, -1, prepared, output)]
    if args.trace:
        tracer = Tracer(work_dir)
        timed, traced, in_order = closed_loop(workload, 1.5 * args.seconds,
                                              tracer)
        ops = len(traced.walls)
        metrics = tracer.layer_metrics(ops)
        metrics.update(campaign_means(traced))
        result["trace"] = {
            "untraced_ops_per_s": timed.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s,
            "overhead": timed.ops_per_s / traced.ops_per_s - 1.0,
            "op_wall_s": statistics.fmean(traced.walls),
            "spans": tracer.span_rows(ops),
            "targets": dict(sorted(tracer.target_calls.items())),
            "prediction_problems": check_predictions(args.workload, metrics),
        }
    else:
        timed, _, in_order = closed_loop(workload, args.seconds)
    checked.extend(in_order)
    try:
        rerun = workload.rerun_check(0, in_order[0])
    except Exception as exc:  # noqa: BLE001 - counted as a failed check
        rerun = OpResult(units=1, failed=1, digest="raised",
                         problems=[f"re-run of op 0 raised {exc!r}"])
    checked.append(rerun)

    attempted = sum(op.units for op in checked)
    failed = sum(op.failed for op in checked)
    rss_self, rss_children = peak_rss_mb()
    raw = timing_metrics(timed.walls, timed.units, workload.tail_percentile)
    if not args.trace:
        walls = timed.walls
        if workload.normalise:
            walls = timed.normalised_walls
            result["probe_s"] = statistics.median(timed.probes)
        metrics = timing_metrics(walls, timed.units, workload.tail_percentile)
        metrics.update({
            "peak_rss_mb": max(rss_self, rss_children),
            "success_rate": 1.0 - failed / attempted,
        })
    digests = [op.digest for op in in_order[:workload.digest_ops]]
    result.update({
        "metrics": metrics,
        "ops": len(in_order),
        "units": sum(op.units for op in in_order),
        "raw": raw,
        "tail": {"percentile": workload.tail_percentile,
                 "n": len(timed.walls),
                 "beyond": len(timed.walls) - tail_rank(
                     len(timed.walls), workload.tail_percentile)},
        "attempted": attempted,
        "failed": failed,
        "problems": [p for op in checked for p in op.problems],
        "digest": digest_of(*digests),
        "digest_ops": len(digests),
        "rerun_digest": rerun.digest,
        "rss_mb": {"self": rss_self, "largest_child": rss_children},
        "env": environment(workload),
    })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
