"""The repository benchmark: three closed-loop workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload codec_cell --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``codec_cell``,
``model_session`` and ``campaign_grid``.  The seed derives every op's
inputs; the program receives only those inputs.

Set-up time is measured from a fresh interpreter: two probe processes
and the measuring process each import the program, build the workload
and run one warm-up op; ``setup_s`` is the median of the three.  The
measuring process then runs ops back to back for ``--seconds``.

``setup_s`` and the op timings of the in-process workloads are
machine-normalised: each wall is rescaled by a fixed pure-Python speed
probe run right after it (see ``worker.py``), so a shared host's drift
between runs cancels.  ``campaign_grid`` reports raw walls.  Raw walls
are printed for every workload.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a
separate run that alternates untraced and traced ops and prints the
per-layer metrics of the traced ones, the span and wrapper call table,
the layer predictions of ``layers.json`` that did not hold, and the
tracing overhead.  Metrics of a layer a workload never loads read 0.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources next to this directory the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("codec_cell", "model_session", "campaign_grid")
SETUP_PROCESSES = 3
#: Whole-run budget; the benchmark must exit well inside 180 s.
DEADLINE_S = 170.0


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run_child(args: argparse.Namespace, role: str, tmp: str, index: int,
              deadline: float) -> Dict[str, Any]:
    """Start one fresh interpreter and return its JSON result."""
    out = os.path.join(tmp, f"{role}-{index}.json")
    t0 = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--t0", repr(t0), "--tmp", tmp, "--out", out,
    ]
    # Own session, so a timeout can kill the pool workers with it.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process exceeded the time budget")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{role} process exited with status {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def report(args: argparse.Namespace, setups: List[Dict[str, float]],
           main: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    name = args.workload
    tail = main["tail"]
    print(f"[{name}] seed={args.seed} seconds={args.seconds} "
          f"ops={main['ops']} units={main['units']}")
    print(f"[{name}] set-up per process (s, normalised / raw wall): "
          + ", ".join(f"{item['setup_s']:.3f}/{item['setup_wall_s']:.3f}"
                      for item in setups))
    print(f"[{name}] env: {json.dumps(main['env'], sort_keys=True)}")
    print(f"[{name}] digest={main['digest']} over the first "
          f"{main['digest_ops']} op(s); re-run digest={main['rerun_digest']}")
    error_rate = main["failed"] / main["attempted"]
    print(f"[{name}] error_rate = {error_rate:.6f} ratio "
          f"({main['failed']} of {main['attempted']} units failed)")
    for problem in main["problems"]:
        print(f"[{name}] FAILED CHECK: {problem}")
    if args.trace:
        units = metric_units("per_layer")
        metrics = main["metrics"]
        trace = main["trace"]
        for span, calls, incl, own in trace["spans"]:
            print(f"[{name}] span {span:28s} calls/op={calls:10.1f} "
                  f"incl={incl:.4f} s/op self={own:.4f} s/op")
        covered = sum(row[3] for row in trace["spans"])
        print(f"[{name}] op wall {trace['op_wall_s']:.4f} s/op; "
              f"traced self total {covered:.4f} s/op "
              "(grid spans sum over workers)")
        for target, calls in trace["targets"].items():
            flag = "" if calls else "   <- never fired"
            print(f"[{name}] wrapper {target}: {calls} calls{flag}")
        for problem in trace["prediction_problems"]:
            print(f"[{name}] PREDICTION NOT MET: {problem}")
        print(f"[{name}] tracing overhead: traced ops_per_s "
              f"{trace['traced_ops_per_s']:.4f} vs untraced "
              f"{trace['untraced_ops_per_s']:.4f} "
              f"({trace['overhead'] * 100:+.1f}%)")
        out = {key: {"value": metrics.get(key, 0.0), "unit": unit}
               for key, unit in units.items()}
    else:
        metrics = dict(main["metrics"], setup_s=statistics.median(
            item["setup_s"] for item in setups))
        out = {key: {"value": metrics[key], "unit": unit}
               for key, unit in metric_units("end_to_end").items()}
        label = ("max" if tail["percentile"] == 100
                 else f"p{tail['percentile']}")
        short = (" (fewer than 10: no percentile above the median has 10 "
                 "samples beyond it at this run length)"
                 if tail["beyond"] < 10 else "")
        print(f"[{name}] op_tail_s is {label} of n={tail['n']} op walls, "
              f"{tail['beyond']} samples beyond it{short}")
        raw = main["raw"]
        if "probe_s" in main:
            print(f"[{name}] op timings are machine-normalised: wall x "
                  f"{main['env']['calibration']['python_reference_s']} s / "
                  f"speed probe (median probe {main['probe_s']:.5f} s)")
        print(f"[{name}] raw wall: op_p50_s={raw['op_p50_s']:.6g} s, "
              f"op_tail_s={raw['op_tail_s']:.6g} s, "
              f"ops_per_s={raw['ops_per_s']:.6g} 1/s")
        rss = main["rss_mb"]
        print(f"[{name}] peak RSS: benchmark process {rss['self']:.1f} MB, "
              f"largest child process {rss['largest_child']:.1f} MB")
    for key, item in out.items():
        print(f"[{name}] {key} = {item['value']:.6g} {item['unit']}")
    return {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": out,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = os.path.join(ROOT, ".perfbench_tmp")
    tmp = os.path.join(base, str(os.getpid()))
    os.makedirs(tmp)
    try:
        setups = [run_child(args, "probe", tmp, index, deadline)
                  for index in range(SETUP_PROCESSES - 1)]
        main_result = run_child(args, "main", tmp, 0, deadline)
        setups.append(main_result)
        final = report(args, setups, main_result)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
