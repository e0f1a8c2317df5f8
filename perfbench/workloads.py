"""The benchmark's three closed-loop workloads.

Each workload drives the program through its public entry points only
(``run_bandwidth_cell``, ``Testbed.run_session``, ``run_campaign`` and
``report_from_store``) with inputs derived from the workload seed.  One
op runs at a time:

* :meth:`Workload.prepare` builds an op's inputs (untimed),
* :meth:`Workload.run` is the timed call into the program,
* :meth:`Workload.check` verifies the op's outputs (untimed) and returns
  an :class:`OpResult` with a content digest.

Why these three (recorded in ``BENCHMARK.json`` too): ``codec_cell`` is
dominated by media, QoE and recorder work; ``model_session`` runs no
codec at all, so the simulator and relay fan-out are the load and a
media gain must leave it unchanged; ``campaign_grid`` is the only one
that exercises the scheduler, pool executor and store.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import astuple, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

PLATFORMS = ("zoom", "webex", "meet")


def op_seed(workload: str, seed: int, index: int) -> int:
    """The 31-bit program seed of one op (index -1 is the warm-up)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def digest_of(*parts: Any) -> str:
    """A short content digest of values with exact float reprs."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class OpResult:
    """The checked outcome of one op.

    Attributes:
        units: Work units the op completed (1, or cells for the grid).
        failed: Units that raised, were not ``ok`` or failed a check.
        digest: Content digest of the op's outputs.
        problems: What failed, for the log.
        extra: Workload-specific per-op figures for the traced run.
    """

    units: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One closed-loop workload; subclasses implement the op."""

    name = ""
    #: Percentile reported as ``op_tail_s``: the highest with at least
    #: ten samples beyond it at the fixed run length.  Where no
    #: percentile above the median has that many, the closest steady
    #: upper percentile instead (the count beyond it is printed).
    tail_percentile = 100
    #: Ops whose digests form the printed workload digest.
    digest_ops = 1
    #: Ops before the inputs repeat (the traced run alternates cycles).
    cycle = 1
    #: Whether op walls are rescaled by the speed probe run after each
    #: op.  The probe measures this process's core, which stands for
    #: the op's speed only when the op runs in this process.
    normalise = True

    def __init__(self, seed: int, tmp_dir: str) -> None:
        self.seed = seed
        self.tmp_dir = tmp_dir

    def seed_of(self, index: int) -> int:
        return op_seed(self.name, self.seed, index)

    def setup(self) -> None:
        """Import the program and build what every op shares."""

    def warm_up(self) -> "tuple[Any, Any]":
        """One untimed op (index -1); returns its inputs and outputs."""
        prepared = self.prepare(-1)
        return prepared, self.run(prepared)

    def prepare(self, index: int) -> Any:
        raise NotImplementedError

    def run(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, index: int, prepared: Any, output: Any) -> OpResult:
        raise NotImplementedError

    def units(self, prepared: Any) -> int:
        """Work units one op attempts (all fail if the op raises)."""
        return 1

    def rerun_check(self, index: int, first: OpResult) -> OpResult:
        """Re-run op ``index`` with its original seed; digests must match."""
        prepared = self.prepare(index)
        result = self.check(index, prepared, self.run(prepared))
        if result.digest != first.digest:
            result.failed = result.units
            result.problems.append(
                f"re-run of op {index} gave digest {result.digest}, "
                f"first run {first.digest}"
            )
        return result


class CodecCell(Workload):
    """One Fig. 17 bandwidth cell: ``run_bandwidth_cell``, no VIFP.

    Ops cycle through the 3 platforms x the 4 paper rate limits; each
    op reseeds the scale, so the testbed and feeds differ per op.
    """

    name = "codec_cell"
    digest_ops = 3
    # ~1.1 s per op leaves ~18 ops in 20 s: no percentile above the
    # median has ten beyond it, and the maximum (one sample) swung 23%
    # between runs.  p75 keeps ~4 samples beyond it.
    tail_percentile = 75

    def setup(self) -> None:
        from repro.core.testbed import Testbed, TestbedConfig
        from repro.experiments.bandwidth_study import (
            RATE_LIMITS,
            run_bandwidth_cell,
        )
        from repro.experiments.scale import ExperimentScale
        from repro.media.frames import FrameSpec
        from repro.net.link import default_cap_burst

        self._testbed = (Testbed, TestbedConfig)
        self._run_cell = run_bandwidth_cell
        self._cap_burst = default_cap_burst
        self.combos = [(p, cap) for p in PLATFORMS for cap in RATE_LIMITS]
        self.cycle = len(self.combos)
        # The scale `repro bench` times its bandwidth session at.
        self.scale = ExperimentScale(
            sessions=1,
            lag_session_duration_s=8.0,
            qoe_session_duration_s=8.0,
            content_spec=FrameSpec(128, 96, 12),
            probe_count=5,
            score_frames=24,
            seed=11,
        )
        # run_bandwidth_cell stretches sessions to at least 16 s.
        self.session_s = max(self.scale.qoe_session_duration_s, 16.0)

    def prepare(self, index: int) -> Tuple[str, Optional[float], Any, Any]:
        platform, cap = self.combos[index % len(self.combos)]
        scale = self.scale.with_seed(self.seed_of(index))
        testbed_cls, config_cls = self._testbed
        testbed = testbed_cls(config_cls(seed=scale.seed))
        for name in ("US-East", "US-East2", "US-Central"):
            testbed.add_vm(name)
        return platform, cap, scale, testbed

    def run(self, prepared: Any) -> Any:
        platform, cap, scale, testbed = prepared
        return self._run_cell(platform, "high", cap, scale=scale,
                              testbed=testbed, compute_vifp=False)

    def check(self, index: int, prepared: Any, cell: Any) -> OpResult:
        platform, cap = prepared[0], prepared[1]
        problems = []
        if not (_finite(cell.psnr_mean) and 0.0 <= cell.psnr_mean <= 100.0):
            problems.append(f"PSNR {cell.psnr_mean!r} out of range")
        if not (_finite(cell.ssim_mean) and -1.0 <= cell.ssim_mean <= 1.0):
            problems.append(f"SSIM {cell.ssim_mean!r} out of range")
        if not (_finite(cell.mos_lqo_mean) and 1.0 <= cell.mos_lqo_mean <= 5.0):
            problems.append(f"MOS-LQO {cell.mos_lqo_mean!r} out of range")
        if cap is not None:
            ceiling = cap + self._cap_burst(cap) * 8.0 / self.session_s
            if not cell.download_mbps * 1e6 <= ceiling:
                problems.append(
                    f"{platform} download {cell.download_mbps:.3f} Mbps over "
                    f"cap {cap / 1e6:.3f} Mbps plus burst"
                )
        return OpResult(units=1, failed=1 if problems else 0,
                        digest=digest_of(astuple(cell)), problems=problems)


class ModelSession(Workload):
    """One 6-party size-modelled session through ``Testbed.run_session``.

    No codec, audio or recording; probes on; 640x480@30 for 12 s on the
    six US VMs of ``repro bench``'s model session.  Ops cycle
    zoom/webex/meet with per-op testbed and feed seeds.
    """

    name = "model_session"
    # 0.25-0.35 s per op, speed probe included, gives 55-80 ops in
    # 20 s: p80 keeps >= 10 samples beyond it.
    tail_percentile = 80
    digest_ops = 6
    cycle = len(PLATFORMS)
    VMS = ("US-East", "US-East2", "US-East3",
           "US-Central", "US-Central2", "US-West")

    def setup(self) -> None:
        from repro.core.session import SessionConfig
        from repro.core.testbed import Testbed, TestbedConfig
        from repro.media.frames import FrameSpec

        self._testbed = (Testbed, TestbedConfig)
        self._session_config = SessionConfig
        self.spec = FrameSpec(640, 480, 30)

    def prepare(self, index: int) -> Tuple[str, Any, Any]:
        seed = self.seed_of(index)
        testbed_cls, config_cls = self._testbed
        testbed = testbed_cls(config_cls(seed=seed))
        for name in self.VMS:
            testbed.add_vm(name)
        config = self._session_config(
            duration_s=12.0, feed="high", use_codec=False,
            content_spec=self.spec, probes=True, record_video=False,
            audio=False, session_index=0, feed_seed=seed,
        )
        return PLATFORMS[index % len(PLATFORMS)], testbed, config

    def run(self, prepared: Any) -> Any:
        platform, testbed, config = prepared
        return testbed.run_session(platform, list(self.VMS), self.VMS[0],
                                   config)

    def check(self, index: int, prepared: Any, artifacts: Any) -> OpResult:
        testbed = prepared[1]
        network = testbed.network
        events = network.simulator.events_processed
        packets = sum(host.packets_sent for host in network.hosts())
        forwards = sum(r.packets_forwarded for r in artifacts.wiring.relays)
        rtts = [rtt for prober in artifacts.probers.values()
                for result in prober.results() for rtt in result.rtts_s]
        lags = [m.lag_s for name in self.VMS[1:]
                for m in artifacts.lag_measurements(name)]
        problems = []
        for label, value in (("events", events), ("packets", packets),
                             ("relay forwards", forwards),
                             ("RTT samples", len(rtts)),
                             ("lag samples", len(lags))):
            if value <= 0:
                problems.append(f"no {label}")
        if not all(_finite(v) and v > 0 for v in rtts + lags):
            problems.append("non-finite or non-positive RTT/lag value")
        rates = artifacts.rate_summary()
        digest = digest_of(events, packets, forwards, network.fast_lane_fused,
                           rtts, lags, rates.upload_bps,
                           sorted(rates.download_bps_by_client.items()))
        return OpResult(units=1, failed=1 if problems else 0, digest=digest,
                        problems=problems)


class CampaignGrid(Workload):
    """The paper protocol at smoke scale, as users run it.

    ``paper_campaign(scale=SMOKE_SCALE)`` (all six kinds, 84 cells)
    through ``run_campaign(workers=nproc, executor="pool")`` into a
    fresh JSONL store, then ``report_from_store``.  Units are cells.
    """

    name = "campaign_grid"
    # Cells run on every core in pool workers for ~20 s; a probe of one
    # core after the grid tracked its speed worse than the raw wall.
    normalise = False
    KINDS = ("lag", "endpoints", "qoe", "bandwidth", "mobile", "dynamics")

    def __init__(self, seed: int, tmp_dir: str) -> None:
        super().__init__(seed, tmp_dir)
        self.workers = len(os.sched_getaffinity(0))
        self.records_by_op: Dict[int, Dict[str, Any]] = {}

    def setup(self) -> None:
        from repro import campaign
        from repro.campaign.aggregate import KIND_TITLES

        self._campaign = campaign
        self._titles = KIND_TITLES

    def warm_up(self) -> "tuple[Any, Any]":
        """A three-cell grid through the same pool, store and report path.

        A whole grid would add ~20 s to every set-up; this one loads the
        fabric, the pool and one experiment kind.
        """
        prepared = self.prepare(-1, kinds=("endpoints",))
        return prepared, self.run(prepared)

    @staticmethod
    def wait_for_workers(timeout_s: float = 60.0) -> None:
        """Reap the pool's worker processes (they exit asynchronously)."""
        deadline = time.monotonic() + timeout_s
        while multiprocessing.active_children():
            if time.monotonic() > deadline:
                raise RuntimeError("pool workers did not exit")
            time.sleep(0.02)

    def prepare(self, index: int, kinds: Optional[Tuple[str, ...]] = None
                ) -> Tuple[Any, str]:
        spec = self._campaign.paper_campaign(
            kinds=kinds, scale=self._campaign.SMOKE_SCALE,
            master_seed=self.seed_of(index),
        )
        return spec, os.path.join(self.tmp_dir, f"grid-{index}.jsonl")

    def units(self, prepared: Any) -> int:
        return len(prepared[0].expand())

    def _records(self, path: str) -> List[Any]:
        store = self._campaign.open_store(path)
        try:
            return store.cell_records()
        finally:
            store.close()

    def run(self, prepared: Any) -> Any:
        spec, path = prepared
        start = time.perf_counter()
        summary = self._campaign.run_campaign(
            spec, path, workers=self.workers, executor="pool"
        )
        grid_s = time.perf_counter() - start
        text = self._campaign.report_from_store(path).render()
        return summary, grid_s, text, time.perf_counter() - start - grid_s

    def check(self, index: int, prepared: Any, output: Any) -> OpResult:
        spec, path = prepared
        summary, grid_s, text, report_s = output
        self.wait_for_workers()
        expected = {cell.cell_id for cell in spec.expand()}
        records = self._records(path)
        by_id = {record.cell_id: record for record in records}
        problems = []
        if len(records) != len(by_id) or set(by_id) != expected:
            problems.append(
                f"store holds {len(records)} records for "
                f"{len(set(by_id) & expected)}/{len(expected)} spec cells"
            )
        bad = sorted(cid for cid, rec in by_id.items() if not rec.ok)
        missing = expected - set(by_id)
        problems.extend(f"cell {cid} not ok: {by_id[cid].error}"
                        for cid in bad)
        for kind in {cell.kind for cell in spec.expand()}:
            if f"## {self._titles[kind]}" not in text:
                problems.append(f"report lacks the {kind} table")
        resumed = self._campaign.run_campaign(
            spec, path, workers=self.workers, executor="pool", resume=True
        )
        if resumed.executed != 0:
            problems.append(f"resume re-executed {resumed.executed} cells")
        failed = len(bad) + len(missing)
        if problems and not failed:
            failed = len(expected)  # a grid-level check failed
        self.records_by_op[index] = by_id
        durations: Dict[str, List[float]] = {kind: [] for kind in self.KINDS}
        for record in records:
            durations.setdefault(record.kind, []).append(record.duration_s)
        cell_sum = sum(record.duration_s for record in records)
        extra = {
            "campaign.cell_sum_s": cell_sum,
            "campaign.worker_util": cell_sum / (self.workers * grid_s),
            "campaign.fabric.overhead_s": grid_s - cell_sum / self.workers,
            "campaign.attempts": summary.executed + summary.retried,
            "campaign.report_s": report_s,
        }
        for kind, values in durations.items():
            extra[f"campaign.kind.{kind}.cell_p50_s"] = (
                statistics.median(values) if values else 0.0
            )
        digest = digest_of(sorted(r.content_key() for r in records))
        return OpResult(units=len(expected), failed=failed, digest=digest,
                        problems=problems, extra=extra)

    def rerun_check(self, index: int, first: OpResult) -> OpResult:
        """Re-run one cell per kind of op ``index`` with its seeds.

        The cells run inline from a sub-spec that pins each chosen
        cell's axis values, so their ids and derived seeds equal the
        grid's; their content keys must match the stored records.
        """
        spec, _ = self.prepare(index)
        records = self.records_by_op[index]
        chooser = random.Random(self.seed_of(index))
        chosen = []
        for kind in self.KINDS:
            ids = sorted(cid for cid, rec in records.items()
                         if rec.kind == kind)
            if ids:
                chosen.append(records[chooser.choice(ids)])
        if len(chosen) != len(self.KINDS):
            return OpResult(units=len(self.KINDS), failed=len(self.KINDS),
                            digest="missing",
                            problems=["grid lacks a kind to re-run"])
        sub = self._campaign.CampaignSpec(
            name="rerun",
            scenarios=[
                self._campaign.ScenarioSpec(
                    rec.kind, {axis: (value,)
                               for axis, value in rec.params.items()})
                for rec in chosen
            ],
            scale=spec.scale,
            master_seed=spec.master_seed,
        )
        path = os.path.join(self.tmp_dir, f"rerun-{index}.jsonl")
        self._campaign.run_campaign(sub, path, workers=1, executor="inline")
        rerun = {r.cell_id: r for r in self._records(path)}
        problems = [
            f"re-run of {rec.cell_id} differs from the grid's record"
            for rec in chosen
            if rec.cell_id not in rerun
            or rerun[rec.cell_id].content_key() != rec.content_key()
        ]
        return OpResult(units=len(chosen), failed=len(problems),
                        digest=digest_of(sorted(r.content_key()
                                                for r in rerun.values())),
                        problems=problems)


WORKLOADS = {cls.name: cls for cls in (CodecCell, ModelSession, CampaignGrid)}
