"""Kill/resume equivalence, the fabric's core durability claim.

Each selfcheck SIGKILLs a real campaign subprocess mid-grid, resumes
it, and compares the store cell-for-cell against an uninterrupted
reference run.  Deterministic per-cell seeds make the comparison
exact: a resumed campaign must be indistinguishable in content from
one that never died.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.campaign import run_gc_selfcheck, run_selfcheck
from repro.campaign.fabric.selfcheck import (
    _child_pids,
    _orphans_after_kill,
    _subprocess_env,
)

HAS_PROC = os.path.isdir("/proc")

#: Starts a pool's workers, reports ready, then waits to be killed.
_EXECUTOR_PARENT = """
import time
from repro.campaign.fabric.executors import make_executor
make_executor("pool", 2).start()
print("ready", flush=True)
time.sleep(120)
"""


def test_kill_mid_grid_then_resume_matches_reference(tmp_path):
    result = run_selfcheck(
        str(tmp_path),
        cells=10,
        spin_ms=30.0,
        kill_after=3,
    )
    assert result.killed_mid_grid, (
        "campaign finished before the kill landed; selfcheck proved nothing"
    )
    assert result.ok, f"kill/resume mismatches: {result.mismatches}"
    if HAS_PROC:
        assert result.worker_pids, "no worker processes seen at the kill"
    assert result.orphaned_workers == []
    assert result.total == 11  # the requested cells plus the crash cell
    assert result.resumed_executed >= 1


def test_gc_killed_in_crash_window_changes_nothing(tmp_path):
    """Compaction atomicity: a SIGKILLed gc must be a perfect no-op.

    The fault plane kills a real ``campaign gc`` subprocess inside its
    crash window, before the atomic replace; the store must read back
    identical, with the superseded-error debris still intact for a
    clean re-gc.
    """
    result = run_gc_selfcheck(str(tmp_path))
    assert result.gc_returncode == -signal.SIGKILL, (
        "gc subprocess was not killed by the fault plane"
    )
    assert result.ok, f"gc atomicity violations: {result.mismatches}"
    assert result.errors_dropped >= 1


@pytest.mark.skipif(not HAS_PROC, reason="worker pids are read from /proc")
def test_workers_exit_when_parent_is_sigkilled():
    parent = subprocess.Popen(
        [sys.executable, "-c", _EXECUTOR_PARENT],
        env=_subprocess_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        assert parent.stdout.readline().strip() == "ready"
        workers = _child_pids(parent.pid)
        assert workers, "the executor started no worker processes"
    finally:
        parent.kill()
        parent.wait()
    assert _orphans_after_kill(workers) == []
