"""Crash-safe CSI trace store: append-only segments, salvage, replay.

The storage layer the service records through and backtests from:

* :mod:`~repro.store.format` — the CRC-framed ``.cst`` segment format;
* :mod:`~repro.store.backend` — directory / in-memory storage backends;
* :mod:`~repro.store.writer` — crash-safe :class:`TraceWriter` with
  segment rotation and explicit durability boundaries;
* :mod:`~repro.store.reader` — salvaging :class:`TraceReader` that
  recovers every intact record from torn files and reports the rest;
* :mod:`~repro.store.faults` — torn-write fault injection;
* :mod:`~repro.store.replay` — :class:`ReplayPacketSource` driving the
  service at N× real time from a recorded store;
* :mod:`~repro.store.tap` — :class:`RecordingTap` wrapping any packet
  source with a write-through recorder;
* :mod:`~repro.store.backtest` — replay a committed scenario corpus and
  diff accuracy/health against baselines.
"""

from .backend import DirectoryBackend, MemoryBackend, StorageBackend
from .faults import TornWriteFile
from .format import SegmentHeader
from .reader import SalvageIssue, SalvageReport, TraceReader, scan_segment
from .replay import ReplayPacketSource
from .tap import RecordingTap, store_digest
from .writer import TraceWriter

__all__ = [
    "StorageBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "SegmentHeader",
    "TraceWriter",
    "TraceReader",
    "SalvageIssue",
    "SalvageReport",
    "scan_segment",
    "TornWriteFile",
    "ReplayPacketSource",
    "RecordingTap",
    "store_digest",
]
