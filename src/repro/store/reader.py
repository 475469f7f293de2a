"""Salvaging trace reading: recover everything intact, report the rest.

:class:`TraceReader` reads a store's ``.cst`` segments back into packets
(or a whole :class:`~repro.io_.trace.CSITrace`) under one hard rule:
**corrupt content never raises**.  Torn tails, flipped bits, truncated
copies, even a damaged magic — all of it is normal input after a crash,
and all of it is reported through a typed :class:`SalvageReport` while
every frame whose CRC still verifies is recovered.

Salvage policy
--------------

* A frame is recovered iff it is completely present and its CRC32
  matches.  There is no partial-record recovery — half a packet is
  fabricated data.
* After a bad frame the reader scans forward for the next
  :data:`~repro.store.format.FRAME_SYNC` marker and realigns, so one
  corrupt record costs only itself (plus any record whose sync bytes
  were themselves hit).
* A cut-off at end of file is classified ``torn-tail`` (the expected
  crash signature); corruption with more data after it is classified by
  what tripped the parser (``desync``, ``crc-mismatch``, ``bad-length``,
  ``bad-kind``).
* A damaged segment magic — including version digits, which one bit
  flip can forge — becomes a ``bad-magic``/``version-mismatch`` issue
  and salvage proceeds on frame CRCs; a flipped byte in an 8-byte
  preamble must not cost the other 99.99 % of the segment.

The ``.cidx`` index sidecar is never trusted for content: segments are
enumerated from the backend and every byte re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..contracts import ComplexArray
from ..errors import TraceFormatError, TraceStoreError
from ..io_.trace import CSITrace
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from .backend import StorageBackend
from .format import (
    FRAME_HEADER_BYTES,
    FRAME_SYNC,
    KIND_HEADER,
    KIND_PACKET,
    MAX_PAYLOAD_BYTES,
    SEGMENT_MAGIC,
    SegmentHeader,
    check_segment_magic,
    decode_header_payload,
    decode_packet_payload,
    payload_crc,
    unpack_frame_header,
)

__all__ = [
    "SalvageIssue",
    "SalvageReport",
    "SegmentScan",
    "scan_segment",
    "TraceReader",
]

_ISSUE_KINDS = (
    "torn-tail",
    "desync",
    "crc-mismatch",
    "bad-length",
    "bad-kind",
    "bad-magic",
    "version-mismatch",
    "bad-header",
    "missing-header",
    "bad-payload",
    "short-file",
)


@dataclass(frozen=True)
class SalvageIssue:
    """One region of a segment the salvage scan could not recover.

    Attributes:
        kind: Machine-readable classification, one of
            ``torn-tail`` (file ends inside a frame — the crash
            signature), ``desync`` (expected a sync marker, found other
            bytes), ``crc-mismatch``, ``bad-length`` (length field
            implausible), ``bad-kind`` (unknown frame kind),
            ``bad-magic`` / ``version-mismatch`` (damaged preamble),
            ``bad-header`` (CRC-valid header frame that fails to parse),
            ``missing-header`` (packet frames with no usable header to
            decode them against), ``bad-payload`` (CRC-valid packet of
            the wrong size for the header), ``short-file`` (file shorter
            than a magic).
        segment: Segment file name.
        offset: Byte offset where the bad region starts.
        n_bytes_skipped: Bytes given up on before the scan realigned.
        n_records_lost: CRC-valid records skipped inside the region
            (non-zero only for decode-stage issues).
        detail: Human-readable specifics.
    """

    kind: str
    segment: str
    offset: int
    n_bytes_skipped: int
    n_records_lost: int = 0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _ISSUE_KINDS:
            raise TraceStoreError(
                f"unknown salvage issue kind {self.kind!r}; "
                f"expected one of {_ISSUE_KINDS}"
            )

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe form for reports and the sanitizer byte-diff."""
        return {
            "kind": self.kind,
            "segment": self.segment,
            "offset": self.offset,
            "n_bytes_skipped": self.n_bytes_skipped,
            "n_records_lost": self.n_records_lost,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SalvageReport:
    """What a salvage pass recovered and what it had to give up.

    Attributes:
        n_segments_scanned: Segment files examined.
        n_records_recovered: CRC-verified packet records returned.
        n_records_lost: CRC-valid records that could not be decoded
            (wrong geometry, no header) — distinct from regions so
            corrupt they hold no countable records.
        n_bytes_scanned: Total bytes examined.
        n_bytes_skipped: Bytes inside unrecoverable regions.
        issues: Every unrecoverable region, in scan order.
    """

    n_segments_scanned: int
    n_records_recovered: int
    n_records_lost: int
    n_bytes_scanned: int
    n_bytes_skipped: int
    issues: tuple[SalvageIssue, ...]

    @property
    def clean(self) -> bool:
        """True when every byte of every segment verified."""
        return not self.issues

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe form for reports and the sanitizer byte-diff."""
        return {
            "n_segments_scanned": self.n_segments_scanned,
            "n_records_recovered": self.n_records_recovered,
            "n_records_lost": self.n_records_lost,
            "n_bytes_scanned": self.n_bytes_scanned,
            "n_bytes_skipped": self.n_bytes_skipped,
            "clean": self.clean,
            "issues": [issue.to_jsonable() for issue in self.issues],
        }


@dataclass
class SegmentScan:
    """Salvage result of one segment file.

    Attributes:
        name: Segment file name.
        header: Decoded stream header, or ``None`` if no usable header
            frame survived.
        packets: Recovered ``(timestamp_s, csi)`` records in file order.
        issues: Unrecoverable regions found in this segment.
        n_bytes: Size of the scanned file.
        n_bytes_skipped: Bytes inside unrecoverable regions.
        n_records_lost: CRC-valid records that failed decoding.
    """

    name: str
    header: SegmentHeader | None
    packets: list[tuple[float, ComplexArray]] = field(default_factory=list)
    issues: list[SalvageIssue] = field(default_factory=list)
    n_bytes: int = 0
    n_bytes_skipped: int = 0
    n_records_lost: int = 0


def _scan_magic(data: bytes, name: str, scan: SegmentScan) -> int:
    """Validate the preamble; return the offset frame scanning starts at."""
    if len(data) < len(SEGMENT_MAGIC):
        kind = "torn-tail" if SEGMENT_MAGIC.startswith(data) else "short-file"
        scan.issues.append(
            SalvageIssue(
                kind=kind,
                segment=name,
                offset=0,
                n_bytes_skipped=len(data),
                detail=f"file is only {len(data)} bytes, shorter than a magic",
            )
        )
        scan.n_bytes_skipped += len(data)
        return len(data)
    prefix = data[: len(SEGMENT_MAGIC)]
    try:
        check_segment_magic(prefix)
        return len(SEGMENT_MAGIC)
    except TraceFormatError as exc:
        # One flipped bit can forge a "future version"; salvage decides
        # by frame CRCs, not by 2 unprotected preamble bytes.
        scan.issues.append(
            SalvageIssue(
                kind="version-mismatch",
                segment=name,
                offset=0,
                n_bytes_skipped=len(SEGMENT_MAGIC),
                detail=str(exc),
            )
        )
    except TraceStoreError as exc:
        scan.issues.append(
            SalvageIssue(
                kind="bad-magic",
                segment=name,
                offset=0,
                n_bytes_skipped=len(SEGMENT_MAGIC),
                detail=str(exc),
            )
        )
    scan.n_bytes_skipped += len(SEGMENT_MAGIC)
    return len(SEGMENT_MAGIC)


def scan_segment(
    data: bytes,
    name: str = "",
    *,
    header: SegmentHeader | None = None,
) -> SegmentScan:
    """Salvage every intact record from one segment's bytes.

    Never raises on corrupt content: all damage lands in
    ``SegmentScan.issues``.  (Programming errors — e.g. a non-bytes
    argument — still raise normally.)

    Args:
        data: The full segment file content, however torn.
        name: File name used in issue records.
        header: Fallback stream header from a sibling segment, used to
            decode packets when this segment's own header frame was
            destroyed.
    """
    scan = SegmentScan(name=name, header=None, n_bytes=len(data))
    pos = _scan_magic(data, name, scan)
    fallback_header = header
    while pos < len(data):
        # Realign on the sync marker if the expected frame start is gone.
        if data[pos: pos + len(FRAME_SYNC)] != FRAME_SYNC:
            next_sync = data.find(FRAME_SYNC, pos + 1)
            skipped = (next_sync if next_sync != -1 else len(data)) - pos
            at_eof = next_sync == -1
            scan.issues.append(
                SalvageIssue(
                    kind="torn-tail" if at_eof else "desync",
                    segment=name,
                    offset=pos,
                    n_bytes_skipped=skipped,
                    detail="no sync marker at expected frame boundary",
                )
            )
            scan.n_bytes_skipped += skipped
            if at_eof:
                break
            pos = next_sync
            continue
        if pos + FRAME_HEADER_BYTES > len(data):
            skipped = len(data) - pos
            scan.issues.append(
                SalvageIssue(
                    kind="torn-tail",
                    segment=name,
                    offset=pos,
                    n_bytes_skipped=skipped,
                    detail="file ends inside a frame header",
                )
            )
            scan.n_bytes_skipped += skipped
            break
        kind, length, crc = unpack_frame_header(
            data[pos + len(FRAME_SYNC): pos + FRAME_HEADER_BYTES]
        )
        if length > MAX_PAYLOAD_BYTES or kind not in (KIND_HEADER, KIND_PACKET):
            issue_kind = "bad-length" if length > MAX_PAYLOAD_BYTES else "bad-kind"
            pos = _resync(data, name, scan, pos, issue_kind,
                          f"kind={kind} length={length}")
            continue
        frame_end = pos + FRAME_HEADER_BYTES + length
        if frame_end > len(data):
            # Either the crash cut the final frame, or a flipped length
            # byte points past EOF; more data after the next sync means
            # the latter.
            if data.find(FRAME_SYNC, pos + len(FRAME_SYNC)) == -1:
                skipped = len(data) - pos
                scan.issues.append(
                    SalvageIssue(
                        kind="torn-tail",
                        segment=name,
                        offset=pos,
                        n_bytes_skipped=skipped,
                        detail=(
                            f"frame needs {frame_end - len(data)} more "
                            "byte(s) than the file holds"
                        ),
                    )
                )
                scan.n_bytes_skipped += skipped
                break
            pos = _resync(data, name, scan, pos, "bad-length",
                          f"length {length} overshoots end of file")
            continue
        payload = data[pos + FRAME_HEADER_BYTES: frame_end]
        if payload_crc(payload) != crc:
            pos = _resync(data, name, scan, pos, "crc-mismatch",
                          f"{length}-byte payload failed its CRC")
            continue
        # Frame verified; decode it.
        if kind == KIND_HEADER:
            try:
                scan.header = decode_header_payload(payload)
            except TraceStoreError as exc:
                scan.issues.append(
                    SalvageIssue(
                        kind="bad-header",
                        segment=name,
                        offset=pos,
                        n_bytes_skipped=FRAME_HEADER_BYTES + length,
                        detail=str(exc),
                    )
                )
                scan.n_bytes_skipped += FRAME_HEADER_BYTES + length
        else:
            decode_with = scan.header if scan.header is not None else fallback_header
            if decode_with is None:
                scan.issues.append(
                    SalvageIssue(
                        kind="missing-header",
                        segment=name,
                        offset=pos,
                        n_bytes_skipped=FRAME_HEADER_BYTES + length,
                        n_records_lost=1,
                        detail="intact packet record but no header to decode it",
                    )
                )
                scan.n_bytes_skipped += FRAME_HEADER_BYTES + length
                scan.n_records_lost += 1
            else:
                try:
                    scan.packets.append(
                        decode_packet_payload(payload, decode_with)
                    )
                except TraceStoreError as exc:
                    scan.issues.append(
                        SalvageIssue(
                            kind="bad-payload",
                            segment=name,
                            offset=pos,
                            n_bytes_skipped=FRAME_HEADER_BYTES + length,
                            n_records_lost=1,
                            detail=str(exc),
                        )
                    )
                    scan.n_bytes_skipped += FRAME_HEADER_BYTES + length
                    scan.n_records_lost += 1
        pos = frame_end
    return scan


def _resync(
    data: bytes,
    name: str,
    scan: SegmentScan,
    pos: int,
    issue_kind: str,
    detail: str,
) -> int:
    """Record a corrupt region and return the next plausible frame start."""
    next_sync = data.find(FRAME_SYNC, pos + len(FRAME_SYNC))
    end = next_sync if next_sync != -1 else len(data)
    scan.issues.append(
        SalvageIssue(
            kind=issue_kind,
            segment=name,
            offset=pos,
            n_bytes_skipped=end - pos,
            detail=detail,
        )
    )
    scan.n_bytes_skipped += end - pos
    return end


class TraceReader:
    """Read a store's segments back, salvaging around any damage.

    Args:
        backend: Storage the segments live in.
        stem: Store name (segments ``{stem}-*.cst``).
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            records ``store_records_salvaged_total``,
            ``store_records_skipped_total`` and
            ``store_bytes_skipped_total``.
    """

    def __init__(
        self,
        backend: StorageBackend,
        stem: str,
        *,
        instrumentation: Instrumentation | None = None,
    ):
        if not stem:
            raise TraceStoreError("store stem must be non-empty")
        self._backend = backend
        self._stem = str(stem)
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )

    def segment_names(self) -> list[str]:
        """The store's segment files, in segment order.

        Enumerated from the backend, not the index sidecar — a stale
        index after a crash must not hide the torn segment.
        """
        prefix = f"{self._stem}-"
        return [
            name
            for name in self._backend.list_names()
            if name.startswith(prefix) and name.endswith(".cst")
        ]

    def scan(self) -> tuple[list[SegmentScan], SalvageReport]:
        """Salvage every segment; return per-segment scans + the report.

        Raises:
            TraceStoreError: The store has no segments at all (a missing
                store is a caller error, not salvageable damage).
        """
        names = self.segment_names()
        if not names:
            raise TraceStoreError(
                f"store {self._stem!r} has no segments in this backend"
            )
        scans: list[SegmentScan] = []
        carry_header: SegmentHeader | None = None
        for name in names:
            data = self._backend.read_bytes(name)
            scan = scan_segment(data, name, header=carry_header)
            if scan.header is not None:
                carry_header = scan.header
            scans.append(scan)
        report = SalvageReport(
            n_segments_scanned=len(scans),
            n_records_recovered=sum(len(s.packets) for s in scans),
            n_records_lost=sum(s.n_records_lost for s in scans),
            n_bytes_scanned=sum(s.n_bytes for s in scans),
            n_bytes_skipped=sum(s.n_bytes_skipped for s in scans),
            issues=tuple(
                issue for s in scans for issue in s.issues
            ),
        )
        self._obs.count(
            "store_records_salvaged_total",
            amount=report.n_records_recovered,
            labels={"stem": self._stem},
            help_text="Packet records recovered by salvage scans.",
        )
        self._obs.count(
            "store_records_skipped_total",
            amount=report.n_records_lost,
            labels={"stem": self._stem},
            help_text="Intact records that could not be decoded.",
        )
        self._obs.count(
            "store_bytes_skipped_total",
            amount=report.n_bytes_skipped,
            labels={"stem": self._stem},
            help_text="Bytes inside unrecoverable segment regions.",
        )
        return scans, report

    def read_packets(
        self,
    ) -> tuple[list[tuple[float, ComplexArray]], SegmentHeader | None,
               SalvageReport]:
        """All recovered packets across segments, in store order."""
        scans, report = self.scan()
        packets = [pkt for scan in scans for pkt in scan.packets]
        header = next(
            (scan.header for scan in scans if scan.header is not None), None
        )
        return packets, header, report

    def read_trace(self, *, strict: bool = False) -> tuple[CSITrace, SalvageReport]:
        """Assemble every recovered record into one :class:`CSITrace`.

        Args:
            strict: Passed through to the trace constructor; the default
                ``False`` accepts salvaged streams whose surviving
                timestamps may straddle a hole.

        Raises:
            TraceStoreError: Nothing recoverable — no usable header or
                zero intact records (the report is attached as
                ``exc.report``).
        """
        packets, header, report = self.read_packets()
        if header is None or not packets:
            exc = TraceStoreError(
                f"store {self._stem!r} yielded no recoverable records "
                f"({len(report.issues)} issue(s) found)"
            )
            exc.report = report  # type: ignore[attr-defined]
            raise exc
        csi = np.stack([pkt[1] for pkt in packets])
        timestamps_s = np.asarray([pkt[0] for pkt in packets], dtype=float)
        meta = dict(header.meta)
        meta["salvage"] = report.to_jsonable()
        trace = CSITrace(
            csi=csi,
            timestamps_s=timestamps_s,
            sample_rate_hz=header.sample_rate_hz,
            subcarrier_indices=np.asarray(header.subcarrier_indices, dtype=int),
            meta=meta,
            strict=strict,
        )
        return trace, report
