"""Unit tests for torn-write storage fault injection."""

from __future__ import annotations

import pytest

from repro.errors import TornWriteError, TraceStoreError
from repro.store import MemoryBackend, TornWriteFile


class TestTornWriteFile:
    def test_writes_within_budget_pass_through(self):
        backend = MemoryBackend()
        torn = TornWriteFile(backend.open_append("a"), crash_after_bytes=10)
        assert torn.write(b"12345") == 5
        assert torn.write(b"67890") == 10 - 5
        assert not torn.crashed
        assert backend.read_bytes("a") == b"1234567890"

    def test_crossing_write_is_torn_at_the_budget(self):
        backend = MemoryBackend()
        torn = TornWriteFile(backend.open_append("a"), crash_after_bytes=4)
        torn.write(b"12")
        with pytest.raises(TornWriteError) as excinfo:
            torn.write(b"3456")
        assert excinfo.value.n_bytes_persisted == 2
        assert torn.crashed
        assert torn.n_bytes_written == 4
        # The torn prefix is on "disk"; nothing past the budget is.
        assert backend.read_bytes("a") == b"1234"

    def test_post_crash_calls_fail_with_zero_persisted(self):
        torn = TornWriteFile(MemoryBackend().open_append("a"), 0)
        with pytest.raises(TornWriteError):
            torn.write(b"x")
        with pytest.raises(TornWriteError) as excinfo:
            torn.write(b"y")
        assert excinfo.value.n_bytes_persisted == 0
        with pytest.raises(TornWriteError):
            torn.flush()
        torn.close()  # close is always allowed

    def test_negative_budget_rejected(self):
        with pytest.raises(TraceStoreError, match=">= 0"):
            TornWriteFile(MemoryBackend().open_append("a"), -1)
