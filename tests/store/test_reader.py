"""Unit tests for the salvaging ``TraceReader``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceStoreError
from repro.obs import Instrumentation, MetricsRegistry
from repro.service.clock import SimulatedClock
from repro.store import (
    MemoryBackend,
    SalvageIssue,
    TraceReader,
    scan_segment,
)
from repro.store.format import SEGMENT_MAGIC, segment_name

from .conftest import write_store


def metric(registry, name):
    return sum(
        sample["value"]
        for sample in registry.snapshot()["metrics"]
        if sample["name"] == name
    )


class TestCleanRead:
    def test_clean_store_reports_clean(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=8)
        _, report = TraceReader(backend, "t").scan()
        assert report.clean
        assert report.n_records_recovered == 8
        assert report.n_records_lost == 0
        assert report.n_bytes_skipped == 0
        assert report.issues == ()

    def test_missing_store_raises(self):
        with pytest.raises(TraceStoreError, match="no segments"):
            TraceReader(MemoryBackend(), "ghost").scan()

    def test_empty_stem_rejected(self):
        with pytest.raises(TraceStoreError, match="non-empty"):
            TraceReader(MemoryBackend(), "")


class TestSalvage:
    def test_torn_tail_recovers_prefix(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        name = segment_name("t", 0)
        backend.truncate(name, len(backend.read_bytes(name)) - 17)
        _, report = TraceReader(backend, "t").scan()
        assert report.n_records_recovered == 9
        assert [i.kind for i in report.issues] == ["torn-tail"]
        assert report.n_bytes_skipped > 0

    def test_bit_flip_costs_exactly_one_record(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        name = segment_name("t", 0)
        # Flip a byte well inside a mid-file packet payload.
        offset = len(backend.read_bytes(name)) // 2
        original = backend.read_bytes(name)[offset]
        backend.corrupt(name, offset, original ^ 0x40)
        _, report = TraceReader(backend, "t").scan()
        assert report.n_records_recovered == 9
        assert len(report.issues) == 1
        assert report.issues[0].kind in ("crc-mismatch", "desync", "bad-length", "bad-kind")

    def test_forged_version_digit_still_salvages(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=6)
        name = segment_name("t", 0)
        backend.corrupt(name, len(SEGMENT_MAGIC) - 1, ord("7"))
        _, report = TraceReader(backend, "t").scan()
        # One flipped preamble byte must not cost the segment's records.
        assert report.n_records_recovered == 6
        assert [i.kind for i in report.issues] == ["version-mismatch"]
        assert "unsupported segment format version" in report.issues[0].detail

    def test_garbage_magic_still_salvages(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=6)
        name = segment_name("t", 0)
        for k in range(4):
            backend.corrupt(name, k, ord("?"))
        _, report = TraceReader(backend, "t").scan()
        assert report.n_records_recovered == 6
        assert [i.kind for i in report.issues] == ["bad-magic"]

    def test_header_carried_across_segments(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=60, rotate_bytes=4096)
        reader = TraceReader(backend, "t")
        names = reader.segment_names()
        assert len(names) >= 2
        # Destroy the second segment's header frame payload: its packets
        # must decode via the header carried from segment 0.
        data = backend.read_bytes(names[1])
        offset = len(SEGMENT_MAGIC) + 15  # inside the header-frame JSON
        backend.corrupt(names[1], offset, data[offset] ^ 0xFF)
        _, report = reader.scan()
        assert report.n_records_recovered >= 58
        assert any(i.segment == names[1] for i in report.issues)

    def test_scan_segment_never_raises_on_any_corruption(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=4)
        data = backend.read_bytes(segment_name("t", 0))
        rng = np.random.default_rng(5)
        for _ in range(200):
            corrupted = bytearray(data)
            for _ in range(int(rng.integers(1, 6))):
                corrupted[int(rng.integers(0, len(data)))] = int(
                    rng.integers(0, 256)
                )
            scan = scan_segment(bytes(corrupted), "seg")  # must not raise
            assert len(scan.packets) <= 4


class TestReadTrace:
    def test_read_trace_carries_salvage_meta(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        trace, report = TraceReader(backend, "t").read_trace()
        assert trace.csi.shape[0] == 10
        assert trace.meta["salvage"]["clean"] is True
        assert trace.meta["salvage"] == report.to_jsonable()

    def test_nothing_recoverable_raises_with_report(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=3)
        name = segment_name("t", 0)
        backend.truncate(name, 5)  # inside the magic
        with pytest.raises(TraceStoreError, match="no recoverable") as excinfo:
            TraceReader(backend, "t").read_trace()
        assert excinfo.value.report.n_records_recovered == 0


class TestReportShapes:
    def test_issue_kind_validated(self):
        with pytest.raises(TraceStoreError, match="unknown salvage issue"):
            SalvageIssue(kind="nonsense", segment="s", offset=0, n_bytes_skipped=0)

    def test_report_round_trips_to_json(self):
        backend = MemoryBackend()
        write_store(backend, n_packets=5)
        backend.truncate(segment_name("t", 0), 100)
        _, report = TraceReader(backend, "t").scan()
        jsonable = report.to_jsonable()
        assert jsonable["n_segments_scanned"] == 1
        assert jsonable["clean"] is False
        assert jsonable["issues"][0]["kind"] == report.issues[0].kind


class TestObsCounters:
    def test_salvage_counters_recorded(self):
        registry = MetricsRegistry()
        obs = Instrumentation(clock=SimulatedClock(), registry=registry)
        backend = MemoryBackend()
        write_store(backend, n_packets=10)
        name = segment_name("t", 0)
        backend.truncate(name, len(backend.read_bytes(name)) - 30)
        TraceReader(backend, "t", instrumentation=obs).scan()
        assert metric(registry, "store_records_salvaged_total") == 9
        assert metric(registry, "store_bytes_skipped_total") > 0
