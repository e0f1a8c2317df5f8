"""Media senders: pacing, simulcast, adaptation plumbing."""

import pytest

from repro.clients.streamer import (
    AudioStreamer,
    ModelVideoStreamer,
    VideoStreamer,
)
from repro.errors import SessionError
from repro.media.audio import SpeechLikeSource
from repro.media.audio_codec import AudioCodecConfig
from repro.media.feeds import LowMotionFeed
from repro.media.frames import FrameSpec
from repro.net.capture import Direction
from repro.net.packet import PacketKind
from repro.platforms.base import ClientBinding, StreamLayer, ViewContext
from repro.platforms.ratecontrol import RateContext

SPEC = FrameSpec(64, 48, 10)


@pytest.fixture
def wired(testbed):
    """Three wired clients: one gallery receiver forces simulcast."""
    host = testbed.add_vm("US-East")
    gallery = testbed.add_vm("US-East2")
    gallery.view = ViewContext(view_mode="gallery")
    full = testbed.add_vm("US-West")
    platform = testbed.platform("zoom")
    bindings = [
        ClientBinding(c.name, c.host, 40404) for c in (host, gallery, full)
    ]
    context = RateContext(num_participants=3)
    views = {c.name: c.view for c in (host, gallery, full)}
    wiring = platform.create_session(bindings, "US-East", context, views)
    return testbed, platform, wiring, host, gallery, full, context


class TestVideoStreamer:
    def test_requires_camera(self, wired):
        testbed, platform, wiring, host, *_rest, context = wired
        with pytest.raises(SessionError):
            VideoStreamer(host, wiring, platform, context, SPEC)

    def test_encodes_all_subscribed_layers(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        # The gallery receiver subscribes LOW, the fullscreen one HIGH.
        assert streamer.layers == (StreamLayer.HIGH, StreamLayer.LOW)

    def test_streams_frames_at_fps(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        streamer.start(duration_s=2.0)
        testbed.network.simulator.run()
        assert 18 <= streamer.frames_sent <= 21

    def test_tick_count_exact_over_long_sessions(self, wired):
        # Absolute-time tick scheduling: no accumulated float drift, so
        # a 60 s stream at 10 fps sends exactly 600 frames.
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        streamer.start(duration_s=60.0)
        testbed.network.simulator.run()
        assert streamer.frames_sent == 600

    def test_receivers_get_their_layer(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        gallery_capture = gallery.start_capture()
        full_capture = full.start_capture()
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        streamer.start(duration_s=1.5)
        testbed.network.simulator.run()
        gallery_flows = {
            r.flow_id
            for r in gallery_capture.filter(direction=Direction.IN,
                                            kind=PacketKind.MEDIA_VIDEO)
        }
        full_flows = {
            r.flow_id
            for r in full_capture.filter(direction=Direction.IN,
                                         kind=PacketKind.MEDIA_VIDEO)
        }
        assert wiring.video_flow("US-East", StreamLayer.LOW) in gallery_flows
        assert wiring.video_flow("US-East", StreamLayer.HIGH) in full_flows
        assert wiring.video_flow("US-East", StreamLayer.HIGH) not in gallery_flows

    def test_positive_duration_required(self, wired):
        testbed, platform, wiring, host, *_rest, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        with pytest.raises(SessionError):
            streamer.start(duration_s=0)

    def test_current_target_tracks_rate_state(self, wired):
        testbed, platform, wiring, host, *_rest, context = wired
        host.attach_camera(LowMotionFeed(SPEC))
        streamer = VideoStreamer(host, wiring, platform, context, SPEC)
        assert streamer.current_target_bps == streamer.rate_state.current_bps


class TestModelVideoStreamer:
    def test_rate_close_to_target(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        capture = full.start_capture()
        streamer = ModelVideoStreamer(host, wiring, platform, context, SPEC)
        streamer.start(duration_s=4.0)
        testbed.network.simulator.run()
        rate = capture.payload_rate_bps(Direction.IN,
                                        kind=PacketKind.MEDIA_VIDEO)
        target = platform.video_rates(context)[StreamLayer.HIGH]
        assert 0.6 * target < rate < 1.8 * target

    def test_no_decodable_payload(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        received = []
        full.receiver.on_media = lambda p: received.append(p)  # spy
        streamer = ModelVideoStreamer(host, wiring, platform, context, SPEC)
        streamer.start(duration_s=0.5)
        testbed.network.simulator.run()
        assert received
        assert all(p.payload is None for p in received)


class TestAudioStreamer:
    def test_requires_microphone(self, wired):
        testbed, platform, wiring, host, *_ = wired
        with pytest.raises(SessionError):
            AudioStreamer(host, wiring, AudioCodecConfig())

    def test_fifty_frames_per_second(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_microphone(SpeechLikeSource())
        streamer = AudioStreamer(
            host, wiring, AudioCodecConfig(bitrate_bps=45_000)
        )
        streamer.start(duration_s=2.0)
        testbed.network.simulator.run()
        assert 95 <= streamer.frames_sent <= 105

    def test_audio_rate_matches_platform(self, wired):
        testbed, platform, wiring, host, gallery, full, context = wired
        host.attach_microphone(SpeechLikeSource())
        capture = full.start_capture()
        streamer = AudioStreamer(
            host, wiring, AudioCodecConfig(bitrate_bps=45_000)
        )
        streamer.start(duration_s=3.0)
        testbed.network.simulator.run()
        rate = capture.payload_rate_bps(Direction.IN,
                                        kind=PacketKind.MEDIA_AUDIO)
        assert 0.6 * 45_000 < rate < 1.5 * 45_000
