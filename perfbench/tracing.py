"""Per-layer tracing of the program, from outside it.

:class:`Tracer` wraps the public functions of each layer at the names
their callers look up -- a class attribute for a method, and every
loaded ``repro`` module global bound to a function -- and records one
span per outermost call: calls, inclusive time and self time (inclusive
time minus the time of spans nested inside it).  Session-level counts
(events, packets, fused packets, shaper drops, relay forwards, frames
scored) are read off the objects the wrapped calls receive and return.
Nothing in the program is edited; :meth:`Tracer.uninstall` restores
every original.

Campaign cells run in forked pool workers, which inherit the wrappers.
A forked worker clears its copy of the counters and registers a dump
at worker exit; :meth:`Tracer.merge_worker_dumps`
folds those files back into the parent's counters.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "layers.json")


def load_layers() -> List[Dict[str, Any]]:
    """The layer -> metric -> workload map with its predictions."""
    with open(LAYERS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["layers"]


class Tracer:
    """Spans and counts of one traced phase, installed by monkeypatch."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self._originals: List[Tuple[Any, str, Any]] = []
        #: Calls per installed wrapper ("module.attr"), nested calls
        #: included, so a wrapper that never fires shows as zero.
        self.target_calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._relay_seen: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        # multiprocessing runs its after-fork hooks once a worker has
        # cleared the finalizers it inherited, so the dump registered
        # there survives to the worker's exit.
        mp_util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------- #
    # Spans.
    # ------------------------------------------------------------- #

    def _after_fork(self) -> None:
        """In a forked pool worker: start its own tally, dump at exit.

        The wrappers hold references to these containers, so they are
        cleared in place, never rebound.
        """
        if not self._originals:
            return  # forked after uninstall: nothing is traced
        for tally in (self.target_calls, self.incl, self.self_time,
                      self.calls, self.counts, self._active):
            tally.clear()
        del self._stack[:]
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _wrap(self, span: str, target: str, fn: Callable,
              hook: Optional[Tuple[Callable, Callable]]) -> Callable:
        target_calls, active, stack = (self.target_calls, self._active,
                                       self._stack)
        incl, own, calls = self.incl, self.self_time, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            target_calls[target] += 1
            if active[span]:
                # Nested call of the same span (encode -> encode_batch,
                # materialise -> decode_batch): already being timed.
                return fn(*args, **kwargs)
            before = hook[0](args) if hook else None
            frame = [0.0]
            active[span] = 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[span] = 0
                incl[span] += elapsed
                own[span] += elapsed - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook:
                hook[1](args, before, result)
            return result

        return wrapper

    def _patch(self, holder: Any, attr: str, span: str, target: str,
               hook: Optional[Tuple[Callable, Callable]] = None) -> None:
        original = getattr(holder, attr)
        self._originals.append((holder, attr, original))
        setattr(holder, attr, self._wrap(span, target, original, hook))
        self.target_calls[target] += 0

    def _patch_method(self, cls: type, attr: str, span: str,
                      hook: Optional[Tuple[Callable, Callable]] = None
                      ) -> None:
        if attr not in cls.__dict__:
            raise RuntimeError(
                f"trace target {cls.__module__}.{cls.__qualname__}.{attr} "
                "is not defined on that class"
            )
        self._patch(cls, attr, span,
                    f"{cls.__module__}.{cls.__qualname__}.{attr}", hook)

    def _patch_function(self, fn: Callable, span: str,
                        modules: Optional[List[str]] = None,
                        hook: Optional[Tuple[Callable, Callable]] = None
                        ) -> None:
        """Wrap ``fn`` at every ``repro`` module global bound to it.

        ``modules`` limits the wrap to those callers' namespaces.
        """
        names = modules if modules is not None else sorted(
            name for name in list(sys.modules)
            if name == "repro" or name.startswith("repro.")
        )
        patched = 0
        for module_name in names:
            module = sys.modules[module_name]
            if getattr(module, fn.__name__, None) is fn:
                self._patch(module, fn.__name__, span,
                            f"{module_name}.{fn.__name__}", hook)
                patched += 1
        if not patched:
            raise RuntimeError(f"trace target {fn.__name__} has no caller")

    # ------------------------------------------------------------- #
    # Hooks reading counts off wrapped calls.
    # ------------------------------------------------------------- #

    def _sim_before(self, args: tuple) -> int:
        return args[0].events_processed

    def _sim_after(self, args: tuple, before: int, _result: Any) -> None:
        self.counts["net.sim.events"] += args[0].events_processed - before

    def _session_before(self, args: tuple) -> Tuple[int, int]:
        network = args[0].network
        return (sum(host.packets_sent for host in network.hosts()),
                network.fast_lane_fused)

    def _session_after(self, args: tuple, before: Tuple[int, int],
                       artifacts: Any) -> None:
        network = args[0].network
        self.counts["net.packets"] += (
            sum(host.packets_sent for host in network.hosts()) - before[0]
        )
        self.counts["net.fused"] += network.fast_lane_fused - before[1]
        self.counts["net.shaper.drops"] += sum(
            stats.dropped
            for phases in artifacts.shaper_phase_stats.values()
            for stats in phases.values()
        )
        # Relays are sticky across sessions on one testbed, so count the
        # growth of each relay's lifetime counter.
        for relay in artifacts.wiring.relays:
            seen = self._relay_seen.get(relay, 0)
            self.counts["platforms.relay.forwards"] += (
                relay.packets_forwarded - seen
            )
            self._relay_seen[relay] = relay.packets_forwarded

    def _score_after(self, _args: tuple, _before: Any, report: Any) -> None:
        self.counts["qoe.frames_scored"] += report.frame_count

    # ------------------------------------------------------------- #
    # Install / uninstall.
    # ------------------------------------------------------------- #

    def install(self) -> None:
        """Wrap every traced layer entry point of the loaded program."""
        from repro.clients.receiver import ReceiverEngine
        from repro.core import postprocess
        from repro.core.testbed import Testbed
        from repro.media import padding, sync
        from repro.media.audio import SpeechLikeSource
        from repro.media.audio_codec import AudioCodec
        from repro.media.video_codec import VideoCodec, VideoDecoder
        from repro.net.simulator import Simulator
        from repro.qoe.visqol import mos_lqo
        from repro.qoe.vqmt import score_video

        self._patch_method(Simulator, "run", "net.sim",
                           (self._sim_before, self._sim_after))
        self._patch_method(Testbed, "run_session", "core.session",
                           (self._session_before, self._session_after))
        self._patch_method(ReceiverEngine, "on_media",
                           "clients.receiver.on_media")
        # The recorder's own binding only: postprocess also resizes,
        # inside the alignment span.
        self._patch_function(padding.resize_frames, "clients.recorder.resize",
                             modules=["repro.clients.recorder"])
        for attr in ("encode", "encode_batch"):
            self._patch_method(VideoCodec, attr, "media.video.encode")
        for attr in ("decode", "decode_batch", "materialise"):
            self._patch_method(VideoDecoder, attr, "media.video.decode")
        for attr in ("encode", "encode_frame"):
            self._patch_method(AudioCodec, attr, "media.audio.encode")
        self._patch_method(SpeechLikeSource, "samples", "media.audio.source")
        self._patch_function(postprocess.align_recorded_video,
                             "core.postprocess.align")
        self._patch_function(sync.find_audio_offset, "core.postprocess.align")
        self._patch_function(score_video, "qoe.video",
                             hook=(lambda args: None, self._score_after))
        self._patch_function(mos_lqo, "qoe.audio")
        # Only where the workload loaded the fabric: importing it here
        # would change what codec_cell and model_session load.
        store = sys.modules.get("repro.campaign.store")
        if store is not None:
            self._patch_method(store.CampaignStoreBase, "append_cell",
                               "campaign.store.append")

    def uninstall(self) -> None:
        """Restore every wrapped name."""
        while self._originals:
            holder, attr, original = self._originals.pop()
            setattr(holder, attr, original)

    # ------------------------------------------------------------- #
    # Pool workers.
    # ------------------------------------------------------------- #

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "incl": self.incl, "self": self.self_time,
                "calls": self.calls, "counts": self.counts,
                "targets": self.target_calls,
            }, handle)

    def merge_worker_dumps(self) -> None:
        """Add the dumps of exited workers to this tally (and delete them)."""
        for name in sorted(os.listdir(self.dump_dir)):
            if not (name.startswith("trace-") and name.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, name)
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            os.remove(path)
            for key, tally in (("incl", self.incl), ("self", self.self_time),
                               ("calls", self.calls), ("counts", self.counts),
                               ("targets", self.target_calls)):
                for span, value in data[key].items():
                    tally[span] += value

    # ------------------------------------------------------------- #
    # Metrics.
    # ------------------------------------------------------------- #

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Per-op means of the program-layer metrics (not campaign)."""
        per = 1.0 / max(1, ops)
        events = self.counts["net.sim.events"]
        packets = self.counts["net.packets"]
        sim_self = self.self_time["net.sim"]
        return {
            "net.sim.events": events * per,
            "net.sim.busy_s": self.incl["net.sim"] * per,
            "net.sim.self_s": sim_self * per,
            "net.sim.us_per_event": sim_self / events * 1e6 if events else 0.0,
            "net.packets": packets * per,
            "net.fused_frac": self.counts["net.fused"] / packets
            if packets else 0.0,
            "net.shaper.drops": self.counts["net.shaper.drops"] * per,
            "platforms.relay.forwards":
                self.counts["platforms.relay.forwards"] * per,
            "clients.receiver.on_media_calls":
                self.calls["clients.receiver.on_media"] * per,
            "clients.receiver.on_media_s":
                self.incl["clients.receiver.on_media"] * per,
            "clients.recorder.resize_s":
                self.incl["clients.recorder.resize"] * per,
            "media.video.encode_calls": self.calls["media.video.encode"] * per,
            "media.video.encode_s": self.incl["media.video.encode"] * per,
            "media.video.decode_s": self.incl["media.video.decode"] * per,
            "media.audio.encode_s": self.incl["media.audio.encode"] * per,
            "media.audio.source_s": self.incl["media.audio.source"] * per,
            "core.session_s": self.incl["core.session"] * per,
            "core.postprocess.align_s":
                self.incl["core.postprocess.align"] * per,
            "qoe.video_s": self.incl["qoe.video"] * per,
            "qoe.audio_s": self.incl["qoe.audio"] * per,
            "qoe.frames_scored": self.counts["qoe.frames_scored"] * per,
            "campaign.store.appends":
                self.calls["campaign.store.append"] * per,
            "campaign.store.append_s":
                self.incl["campaign.store.append"] * per,
        }

    def span_rows(self, ops: int) -> List[Tuple[str, float, float, float]]:
        """(span, calls/op, inclusive s/op, self s/op), by self time."""
        per = 1.0 / max(1, ops)
        rows = [(span, calls * per, self.incl[span] * per,
                 self.self_time[span] * per)
                for span, calls in self.calls.items() if calls]
        return sorted(rows, key=lambda row: -row[3])


def check_predictions(workload: str, metrics: Dict[str, float]
                      ) -> List[str]:
    """Violations of layers.json's fires/zero predictions on a workload."""
    problems = []
    for layer in load_layers():
        values = [metrics.get(name, 0.0) for name in layer["metrics"]]
        nonzero = any(value and not math.isnan(value) for value in values)
        if workload in layer["fires"] and not nonzero:
            problems.append(f"{layer['layer']}: predicted to fire on "
                            f"{workload} but every metric is zero")
        if workload in layer["zero"] and nonzero:
            problems.append(f"{layer['layer']}: predicted zero on {workload} "
                            f"but {layer['metrics']} = {values}")
    return problems
