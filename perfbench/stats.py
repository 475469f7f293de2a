"""The benchmark's own arithmetic, kept free of any program import.

Everything here works on plain numbers, arrays and JSON-safe dicts so the
rules can be tested on synthetic inputs (``perfbench/tests``):

* which percentiles a sample supports (at least ten samples beyond it);
* how many windows a capture geometry promises, and the failure ratio
  over that promise;
* per-span self time over nested (or overlapping) child spans;
* canonical digests of estimate streams and the check that they agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BenchError",
    "MIN_SAMPLES_BEYOND",
    "supported_percentile",
    "percentile",
    "promised_windows",
    "window_failure_ratio",
    "span_self_times",
    "uncovered_time",
    "stream_digest",
    "combined_digest",
    "check_digests",
]

# A percentile is reported only when at least this many samples lie beyond
# it, so p90 needs 100 samples and p99 would need 1000.
MIN_SAMPLES_BEYOND = 10


class BenchError(RuntimeError):
    """A workload broke one of the benchmark's correctness rules."""


def supported_percentile(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave at least ``MIN_SAMPLES_BEYOND`` above ``q``."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation), refusing thin tails.

    Raises:
        BenchError: Fewer than ``MIN_SAMPLES_BEYOND`` samples lie beyond
            ``q`` (for ``q = 50`` that means fewer than 20 samples).
    """
    n = len(values)
    if not supported_percentile(n, q):
        raise BenchError(
            f"p{q:g} needs {math.ceil(MIN_SAMPLES_BEYOND * 100 / (100 - q))} "
            f"samples, got {n}"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q))


def promised_windows(duration_s: float, window_s: float, hop_s: float) -> int:
    """Windows a capture of ``duration_s`` promises: ⌊(D − W)/H⌋ + 1.

    A capture shorter than one window promises nothing.
    """
    if window_s <= 0 or hop_s <= 0:
        raise ValueError("window and hop must be positive")
    if duration_s < window_s:
        return 0
    # The tolerance absorbs float error in exact multiples (60 s, 8 s, 4 s).
    return int(math.floor((duration_s - window_s) / hop_s + 1e-9)) + 1


def window_failure_ratio(
    promised: Sequence[int], with_rate: Sequence[int]
) -> float:
    """Share of promised windows that produced no rate.

    Per session, the failures are ``promised − windows that carried a
    rate``: a window that was never emitted counts as failed, and extra
    emissions in one session never offset losses in another.
    """
    if len(promised) != len(with_rate):
        raise ValueError("one promise and one count per session")
    total = sum(promised)
    if total <= 0:
        raise BenchError("the workload promises no windows")
    failed = sum(max(0, p - r) for p, r in zip(promised, with_rate))
    return failed / total


def span_self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Self time of every span: its duration minus its children's cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once (the union of their intervals), so the
    result never goes below zero and the self times of a tree add up to
    its root's duration.

    Args:
        starts: Start time of each span.
        ends: End time of each span (``>= starts``).
        parents: Index of each span's parent, ``-1`` for a root.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    self_s = ends - starts
    child = np.flatnonzero(parents >= 0)
    if child.size == 0:
        return self_s
    par = parents[child]
    s = np.maximum(starts[child], starts[par])
    e = np.minimum(ends[child], ends[par])
    e = np.maximum(e, s)
    order = np.lexsort((s, par))
    par, s, e = par[order], s[order], e[order]
    # Running maximum of the ends within each parent group: shift each
    # group above every earlier one so one cumulative max serves them all.
    t0 = float(s.min())
    span = float(e.max()) - t0 + 1.0
    first = np.ones(par.size, dtype=bool)
    first[1:] = par[1:] != par[:-1]
    group = np.cumsum(first) - 1
    shifted = (e - t0) + group * span
    running = np.maximum.accumulate(shifted) - group * span + t0
    prev_end = np.empty_like(running)
    prev_end[1:] = running[:-1]
    prev_end[first] = -np.inf
    covered = e - np.maximum(s, prev_end)
    covered = np.maximum(covered, 0.0)
    np.subtract.at(self_s, par, covered)
    return np.maximum(self_s, 0.0)


def uncovered_time(
    wall_s: float, starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> float:
    """Wall time not inside any root span (the benchmark's own loop)."""
    roots = np.asarray(parents) < 0
    if not roots.any():
        return float(wall_s)
    s = np.asarray(starts, dtype=float)[roots]
    e = np.asarray(ends, dtype=float)[roots]
    order = np.argsort(s, kind="stable")
    covered = 0.0
    cursor = -math.inf
    for a, b in zip(s[order], e[order]):
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return float(wall_s) - covered


def stream_digest(records: Iterable[Mapping[str, object]]) -> str:
    """SHA-256 of one estimate stream in canonical JSON, one line a record."""
    h = hashlib.sha256()
    for record in records:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def combined_digest(per_session: Mapping[str, str]) -> str:
    """One digest over every session's stream digest, keyed by session."""
    return stream_digest(
        {"session": sid, "digest": per_session[sid]}
        for sid in sorted(per_session)
    )


def check_digests(labelled: Sequence[tuple[str, str]]) -> str:
    """Require every labelled digest to be the same; return it.

    Raises:
        BenchError: Two runs of the same inputs produced different
            estimate streams.
    """
    if not labelled:
        raise BenchError("no digests to compare")
    reference_label, reference = labelled[0]
    for label, digest in labelled[1:]:
        if digest != reference:
            raise BenchError(
                f"estimate streams differ: {label} {digest[:12]} != "
                f"{reference_label} {reference[:12]}"
            )
    return reference
