"""Tests for ``ReplayPacketSource``, ``RecordingTap`` and store digests."""

from __future__ import annotations

import numpy as np
import pytest

import repro.store
from repro.errors import TraceStoreError
from repro.service.clock import SimulatedClock
from repro.service.sources import Packet
from repro.store import MemoryBackend, ReplayPacketSource, RecordingTap, TraceReader
from repro.store.tap import store_digest

from .conftest import RATE_HZ, make_packets, write_store


class _ListSource:
    """A PacketSource over an in-memory packet list (test double)."""

    def __init__(self, packets):
        self._packets = list(packets)
        self._index = 0

    @property
    def exhausted(self):
        return self._index >= len(self._packets)

    def next_packet(self):
        if self.exhausted:
            return None
        ts, csi = self._packets[self._index]
        self._index += 1
        return Packet(csi=csi, timestamp_s=ts)


class TestReplayPacketSource:
    def test_replays_all_packets_in_order_and_advances_clock(self):
        backend = MemoryBackend()
        truth = write_store(backend, n_packets=10)
        clock = SimulatedClock()
        source = ReplayPacketSource(backend, "t", clock)
        assert source.n_packets_total == 10
        assert source.sample_rate_hz == RATE_HZ
        assert source.duration_s == pytest.approx(9 / RATE_HZ)
        delivered = []
        while not source.exhausted:
            packet = source.next_packet()
            delivered.append(packet)
            assert clock.now_s == pytest.approx(packet.timestamp_s)
        assert source.next_packet() is None
        assert len(delivered) == 10
        for packet, (ts, csi) in zip(delivered, truth):
            assert packet.timestamp_s == ts
            np.testing.assert_array_equal(packet.csi, csi)

    def test_start_at_skips_earlier_records(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        source = ReplayPacketSource(
            backend, "t", SimulatedClock(), start_at_s=5 / RATE_HZ
        )
        first = source.next_packet()
        assert first.timestamp_s == pytest.approx(5 / RATE_HZ)

    def test_torn_store_replays_recoverable_prefix(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        name = "t-00000.cst"
        backend.truncate(name, len(backend.read_bytes(name)) - 25)
        source = ReplayPacketSource(backend, "t", SimulatedClock())
        assert source.n_packets_total == 9
        assert not source.salvage_report.clean

    def test_unreplayable_store_raises_with_report(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=3)
        backend.truncate("t-00000.cst", 4)
        with pytest.raises(TraceStoreError, match="no replayable") as excinfo:
            ReplayPacketSource(backend, "t", SimulatedClock())
        assert excinfo.value.report.n_records_recovered == 0


class TestRecordingTap:
    def make_tap(self, packets, backend, **overrides):
        fields = dict(sample_rate_hz=RATE_HZ, session_id="tap-test")
        fields.update(overrides)
        return RecordingTap(_ListSource(packets), backend, "rec", **fields)

    def test_tap_is_transparent_to_the_consumer(self):
        packets = make_packets(8)
        tap = self.make_tap(packets, MemoryBackend())
        seen = []
        while not tap.exhausted:
            seen.append(tap.next_packet())
        assert len(seen) == 8
        for packet, (ts, csi) in zip(seen, packets):
            assert packet.timestamp_s == ts
            np.testing.assert_array_equal(packet.csi, csi)

    def test_tap_records_the_stream(self):
        packets = make_packets(8)
        backend = MemoryBackend()
        tap = self.make_tap(packets, backend)
        while not tap.exhausted:
            tap.next_packet()
        tap.close()
        recovered, header, report = TraceReader(backend, "rec").read_packets()
        assert report.clean
        assert len(recovered) == 8
        assert header.session_id == "tap-test"
        assert tap.n_recorded == 8

    def test_crash_resume_rotates_segment_and_preserves_torn_tail(self):
        packets = make_packets(12)
        backend = MemoryBackend()
        tap = self.make_tap(packets, backend)
        for _ in range(6):
            tap.next_packet()
        tap.crash_and_resume(torn_tail_bytes=20)
        assert tap.n_crashes == 1
        while not tap.exhausted:
            tap.next_packet()
        tap.close()
        reader = TraceReader(backend, "rec")
        assert len(reader.segment_names()) == 2
        recovered, _, report = reader.read_packets()
        # The torn tail costs exactly the one record it cut into.
        assert len(recovered) == 11
        assert any(i.kind == "torn-tail" for i in report.issues)

    def test_crash_without_resume_stops_recording_only(self):
        packets = make_packets(10)
        backend = MemoryBackend()
        tap = self.make_tap(packets, backend)
        for _ in range(4):
            tap.next_packet()
        tap.crash()
        assert not tap.recording
        remaining = 0
        while tap.next_packet() is not None:
            remaining += 1
        assert remaining == 6  # the consumer still gets every packet
        recovered, _, _ = TraceReader(backend, "rec").read_packets()
        assert len(recovered) == 4

    def test_digest_is_deterministic(self):
        def record():
            backend = MemoryBackend()
            tap = self.make_tap(make_packets(10), backend)
            for _ in range(5):
                tap.next_packet()
            tap.crash_and_resume(torn_tail_bytes=13)
            while not tap.exhausted:
                tap.next_packet()
            tap.close()
            return store_digest(backend, "rec")

        first, second = record(), record()
        assert first == second
        assert len(first["segments"]) == 2
        assert all("sha256" in seg for seg in first["segments"])
        assert first["salvage"]["n_records_recovered"] == 9

    def test_negative_torn_tail_rejected(self):
        tap = self.make_tap(make_packets(2), MemoryBackend())
        with pytest.raises(TraceStoreError, match=">= 0"):
            tap.crash(torn_tail_bytes=-1)


class TestStoreDigest:
    def test_package_exports_the_tap_digest(self):
        assert repro.store.store_digest is store_digest

    def test_digest_is_stable_for_identical_bytes(self):
        backend = MemoryBackend()
        write_store(backend, "a", n_packets=10, seed=1)
        assert store_digest(backend, "a") == store_digest(backend, "a")

    def test_digest_tracks_content(self):
        backend = MemoryBackend()
        write_store(backend, "a", n_packets=10, seed=1)
        write_store(backend, "b", n_packets=10, seed=2)
        first, second = store_digest(backend, "a"), store_digest(backend, "b")
        assert first != second
        assert [seg["sha256"] for seg in first["segments"]] != [
            seg["sha256"] for seg in second["segments"]
        ]

    def test_missing_store_rejected(self):
        with pytest.raises(TraceStoreError, match="no segments"):
            store_digest(MemoryBackend(), "ghost")
