"""Composable, seeded channel/capture impairments for robustness testing.

The paper evaluates on clean 400 pkt/s Intel 5300 captures; every real
frame-capture deployment sees worse — CSMA backoff and interference drop
frames (independently and in bursts), NICs reset mid-capture leaving
second-long holes, timestamp counters jitter, drift, and occasionally glitch
backwards, AGC saturation clips packets, and individual subcarriers die.

Each impairment here is a small frozen dataclass: a deterministic (seeded)
transform ``CSITrace -> CSITrace`` that leaves the input untouched, returns
an impaired copy, and appends a record of what it did (parameters *and*
realized statistics, e.g. how many packets were dropped) to
``trace.meta["impairments"]``.  Impairments compose by chaining —
:func:`apply_impairments` runs a list under one master seed — so the
robustness benchmark can sweep, say, Bernoulli loss × dropout length with
full reproducibility.

Impaired traces are built with ``strict=False`` because some faults (clock
glitches) deliberately violate the invariants a healthy capture satisfies;
:meth:`CSITrace.validate` and the streaming quality gates are the layers
whose job it is to catch them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigurationError
from ..io_.trace import CSITrace

__all__ = [
    "Impairment",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "DropoutGap",
    "TimestampJitter",
    "ClockDrift",
    "ClockGlitch",
    "CorruptedTimestamps",
    "ImpulsiveCorruption",
    "ClippedPackets",
    "SubcarrierNulls",
    "SegmentImpairment",
    "apply_impairments",
    "heavy_impairments",
]


@dataclass(frozen=True)
class Impairment:
    """Base class: a seeded ``CSITrace -> CSITrace`` transform."""

    kind = "impairment"

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Return an impaired copy of ``trace`` using ``rng`` for randomness."""
        raise NotImplementedError

    def __call__(self, trace: CSITrace, *, seed: int = 0) -> CSITrace:
        """Apply with a fresh generator seeded by ``seed``."""
        return self.apply(trace, np.random.default_rng(seed))

    def _record(self, **realized) -> dict:
        """Metadata record: type tag + parameters + realized statistics."""
        return {"type": self.kind, **asdict(self), **realized}


def _rebuild(
    trace: CSITrace,
    record: dict,
    *,
    csi: np.ndarray | None = None,
    timestamps_s: np.ndarray | None = None,
) -> CSITrace:
    """A new trace with replaced arrays and the impairment recorded."""
    meta = dict(trace.meta)
    meta["impairments"] = list(meta.get("impairments", ())) + [record]
    return CSITrace(
        csi=trace.csi.copy() if csi is None else csi,
        timestamps_s=(
            trace.timestamps_s.copy() if timestamps_s is None else timestamps_s
        ),
        sample_rate_hz=trace.sample_rate_hz,
        subcarrier_indices=trace.subcarrier_indices,
        meta=meta,
        strict=False,
    )


def _drop(trace: CSITrace, keep: np.ndarray, record: dict) -> CSITrace:
    """Drop packets where ``keep`` is False, keeping at least two."""
    keep = np.asarray(keep, dtype=bool)
    if keep.sum() < 2:
        keep = keep.copy()
        keep[:2] = True
    record["n_dropped"] = int((~keep).sum())
    return _rebuild(
        trace, record, csi=trace.csi[keep], timestamps_s=trace.timestamps_s[keep]
    )


@dataclass(frozen=True)
class BernoulliLoss(Impairment):
    """Independent per-packet loss at probability ``loss_fraction``."""

    loss_fraction: float = 0.1

    kind = "bernoulli-loss"

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_fraction < 1.0:
            raise ConfigurationError(
                f"loss rate must be in [0, 1), got {self.loss_fraction}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Drop each packet independently with probability ``loss_fraction``."""
        keep = rng.random(trace.n_packets) >= self.loss_fraction
        return _drop(trace, keep, self._record())


@dataclass(frozen=True)
class GilbertElliottLoss(Impairment):
    """Bursty loss from the two-state Gilbert–Elliott channel model.

    A Markov chain alternates between a *good* state (loss probability
    ``loss_good``) and a *bad* state (``loss_bad``); ``p_enter_bad`` and
    ``p_exit_bad`` set the burst frequency and mean burst length
    (``1 / p_exit_bad`` packets).
    """

    p_enter_bad: float = 0.005
    p_exit_bad: float = 0.15
    loss_good: float = 0.0
    loss_bad: float = 0.9

    kind = "gilbert-elliott-loss"

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad"):
            p = getattr(self, name)
            if not 0.0 < p <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {p}")
        for name in ("loss_good", "loss_bad"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Drop packets following the two-state burst-loss Markov chain."""
        n = trace.n_packets
        u_state = rng.random(n)
        u_loss = rng.random(n)
        keep = np.ones(n, dtype=bool)
        bad = False
        n_bursts = 0
        for k in range(n):
            if bad:
                if u_state[k] < self.p_exit_bad:
                    bad = False
            elif u_state[k] < self.p_enter_bad:
                bad = True
                n_bursts += 1
            p_loss = self.loss_bad if bad else self.loss_good
            keep[k] = u_loss[k] >= p_loss
        return _drop(trace, keep, self._record(n_bursts=n_bursts))


@dataclass(frozen=True)
class DropoutGap(Impairment):
    """A contiguous hole of ``duration_s`` (NIC reset / capture stall).

    ``start_s`` places the hole explicitly; ``None`` draws it uniformly
    from the middle 80% of the capture so sweeps do not always cut the
    same breathing cycle.
    """

    duration_s: float = 1.0
    start_s: float | None = None

    kind = "dropout-gap"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"gap duration must be positive, got {self.duration_s}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Cut a contiguous ``duration_s`` hole out of the capture."""
        t = trace.timestamps_s
        t0, t1 = float(t[0]), float(t[-1])
        span = t1 - t0
        if self.start_s is not None:
            start = t0 + self.start_s
        else:
            lo = t0 + 0.1 * span
            hi = max(lo, t1 - 0.1 * span - self.duration_s)
            start = float(rng.uniform(lo, hi))
        keep = ~((t >= start) & (t < start + self.duration_s))
        return _drop(trace, keep, self._record(realized_start_s=start - t0))


@dataclass(frozen=True)
class TimestampJitter(Impairment):
    """Gaussian capture-time jitter of standard deviation ``std_s``."""

    std_s: float = 0.5e-3

    kind = "timestamp-jitter"

    def __post_init__(self) -> None:
        if self.std_s <= 0:
            raise ConfigurationError(
                f"jitter std must be positive, got {self.std_s}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Add zero-mean Gaussian noise to every timestamp."""
        times = trace.timestamps_s + rng.normal(
            scale=self.std_s, size=trace.n_packets
        )
        return _rebuild(trace, self._record(), timestamps_s=times)


@dataclass(frozen=True)
class ClockDrift(Impairment):
    """Linear clock skew: timestamps stretched by ``drift_ppm`` parts/million."""

    drift_ppm: float = 50.0

    kind = "clock-drift"

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Stretch timestamps by the constant ppm clock-skew factor."""
        t = trace.timestamps_s
        times = t[0] + (t - t[0]) * (1.0 + self.drift_ppm * 1e-6)
        return _rebuild(trace, self._record(), timestamps_s=times)


@dataclass(frozen=True)
class ClockGlitch(Impairment):
    """A backward timestamp jump of ``jump_back_s`` (counter glitch/reset).

    Every packet from the glitch onward reports a time ``jump_back_s``
    earlier, so the stream re-covers wall-clock time it already reported —
    exactly the fault :func:`repro.dsp.resample.reclock` and the streaming
    monitor must survive.  ``at_s`` places the glitch (offset from the first
    packet); ``None`` draws it uniformly from the middle 80%.
    """

    jump_back_s: float = 0.5
    at_s: float | None = None

    kind = "clock-glitch"

    def __post_init__(self) -> None:
        if self.jump_back_s <= 0:
            raise ConfigurationError(
                f"backward jump must be positive, got {self.jump_back_s}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Inject a backwards timestamp step at the glitch point."""
        t = trace.timestamps_s
        span = float(t[-1] - t[0])
        at = (
            self.at_s
            if self.at_s is not None
            else float(rng.uniform(0.1 * span, 0.9 * span))
        )
        times = t.copy()
        glitched = t - t[0] >= at
        times[glitched] -= self.jump_back_s
        return _rebuild(
            trace,
            self._record(realized_at_s=at, n_glitched=int(glitched.sum())),
            timestamps_s=times,
        )


@dataclass(frozen=True)
class CorruptedTimestamps(Impairment):
    """Random timestamps replaced by NaN (corrupted capture log entries)."""

    corrupt_fraction: float = 0.01

    kind = "corrupted-timestamps"

    def __post_init__(self) -> None:
        if not 0.0 < self.corrupt_fraction <= 1.0:
            raise ConfigurationError(
                f"corruption rate must be in (0, 1], got {self.corrupt_fraction}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Replace a random subset of timestamps with NaN."""
        hit = rng.random(trace.n_packets) < self.corrupt_fraction
        times = trace.timestamps_s.copy()
        times[hit] = np.nan
        return _rebuild(
            trace, self._record(n_corrupted=int(hit.sum())), timestamps_s=times
        )


@dataclass(frozen=True)
class ImpulsiveCorruption(Impairment):
    """Impulsive interference: a fraction of packets get large CSI spikes.

    Affected packets receive complex impulses of ``magnitude`` × the median
    |CSI| on every antenna/subcarrier — the kind of single-packet garbage a
    co-channel burst produces.  Values stay finite; the Hampel stages and
    amplitude quality mask are what should absorb them.
    """

    hit_fraction: float = 0.01
    magnitude: float = 10.0

    kind = "impulsive-corruption"

    def __post_init__(self) -> None:
        if not 0.0 < self.hit_fraction <= 1.0:
            raise ConfigurationError(
                f"corruption rate must be in (0, 1], got {self.hit_fraction}"
            )
        if self.magnitude <= 0:
            raise ConfigurationError(
                f"magnitude must be positive, got {self.magnitude}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Replace a random subset of packets with interference-level garbage."""
        hit = rng.random(trace.n_packets) < self.hit_fraction
        csi = trace.csi.copy()
        n_hit = int(hit.sum())
        if n_hit:
            scale = self.magnitude * float(np.median(np.abs(csi)))
            shape = (n_hit,) + csi.shape[1:]
            csi[hit] += scale * (
                rng.normal(size=shape) + 1j * rng.normal(size=shape)
            )
        return _rebuild(trace, self._record(n_corrupted=n_hit), csi=csi)


@dataclass(frozen=True)
class ClippedPackets(Impairment):
    """AGC saturation: affected packets have |CSI| clipped, phase preserved.

    ``clip_quantile`` sets the saturation level as a quantile of the
    trace-wide amplitude distribution; amplitudes above it are flattened to
    it, destroying the amplitude information (and the mm-scale phase ride
    survives only partially).
    """

    clip_fraction: float = 0.05
    clip_quantile: float = 0.5

    kind = "clipped-packets"

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_fraction <= 1.0:
            raise ConfigurationError(
                f"clip rate must be in (0, 1], got {self.clip_fraction}"
            )
        if not 0.0 < self.clip_quantile < 1.0:
            raise ConfigurationError(
                f"clip quantile must be in (0, 1), got {self.clip_quantile}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Clip the amplitude of a random subset of packets (AGC saturation)."""
        hit = rng.random(trace.n_packets) < self.clip_fraction
        csi = trace.csi.copy()
        n_hit = int(hit.sum())
        if n_hit:
            amp = np.abs(csi)
            level = float(np.quantile(amp, self.clip_quantile))
            sub = csi[hit]
            sub_amp = amp[hit]
            over = sub_amp > level
            sub[over] = sub[over] / sub_amp[over] * level
            csi[hit] = sub
        return _rebuild(trace, self._record(n_clipped=n_hit), csi=csi)


@dataclass(frozen=True)
class SubcarrierNulls(Impairment):
    """Dead subcarriers: ``n_nulls`` randomly chosen (or ``indices``) zeroed.

    A nulled subcarrier reports zero CSI on every packet and antenna — its
    phase is meaningless, which is exactly what the amplitude quality mask
    must bar from subcarrier selection.
    """

    n_nulls: int = 3
    indices: tuple[int, ...] | None = None

    kind = "subcarrier-nulls"

    def __post_init__(self) -> None:
        if self.indices is None and self.n_nulls < 1:
            raise ConfigurationError(
                f"need at least one null, got {self.n_nulls}"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Zero out the configured number of randomly chosen subcarriers."""
        if self.indices is not None:
            nulled = np.asarray(self.indices, dtype=int)
        else:
            n = min(self.n_nulls, trace.n_subcarriers - 1)
            nulled = rng.choice(trace.n_subcarriers, size=n, replace=False)
        if np.any((nulled < 0) | (nulled >= trace.n_subcarriers)):
            raise ConfigurationError(
                f"null indices {nulled} out of range for "
                f"{trace.n_subcarriers} subcarriers"
            )
        csi = trace.csi.copy()
        csi[:, :, nulled] = 0.0
        return _rebuild(
            trace,
            self._record(realized_indices=[int(i) for i in nulled]),
            csi=csi,
        )


@dataclass(frozen=True)
class SegmentImpairment(Impairment):
    """Confine another impairment to one time window of the capture.

    The fault model above is stationary: a loss process runs for the whole
    trace.  Real degradation is often a *burst* — a microwave oven runs for
    two minutes, a neighboring network backs up for thirty seconds.  This
    wrapper applies ``inner`` only to the packets captured in
    ``[start_s, end_s)`` (offsets from the first packet) and splices the
    result back, so the chaos harness can script "clean, then degraded,
    then clean again" timelines from the existing impairment vocabulary.
    """

    inner: Impairment = None  # type: ignore[assignment]
    start_s: float = 0.0
    end_s: float = 0.0

    kind = "segment"

    def __post_init__(self) -> None:
        if not isinstance(self.inner, Impairment):
            raise ConfigurationError(
                "SegmentImpairment needs an inner Impairment"
            )
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"segment window [{self.start_s}, {self.end_s}) is empty"
            )

    def apply(self, trace: CSITrace, rng: np.random.Generator) -> CSITrace:
        """Apply ``inner`` to the window's packets only, splicing back."""
        t0 = float(trace.timestamps_s[0])
        offsets = trace.timestamps_s - t0
        in_window = (offsets >= self.start_s) & (offsets < self.end_s)
        record = self._record(n_segment_packets=int(in_window.sum()))
        if in_window.sum() < 2:
            record["inner_record"] = None
            return _rebuild(trace, record)
        segment = CSITrace(
            csi=trace.csi[in_window],
            timestamps_s=trace.timestamps_s[in_window],
            sample_rate_hz=trace.sample_rate_hz,
            subcarrier_indices=trace.subcarrier_indices,
            meta={},
            strict=False,
        )
        impaired = self.inner.apply(segment, rng)
        inner_records = impaired.meta.get("impairments", [])
        record["inner_record"] = inner_records[-1] if inner_records else None
        before = offsets < self.start_s
        after = offsets >= self.end_s
        csi = np.concatenate(
            [trace.csi[before], impaired.csi, trace.csi[after]]
        )
        times = np.concatenate(
            [
                trace.timestamps_s[before],
                impaired.timestamps_s,
                trace.timestamps_s[after],
            ]
        )
        return _rebuild(trace, record, csi=csi, timestamps_s=times)


def apply_impairments(
    trace: CSITrace,
    impairments: list[Impairment] | tuple[Impairment, ...],
    *,
    seed: int = 0,
) -> CSITrace:
    """Apply a chain of impairments under one master seed.

    Each impairment draws from an independent child generator spawned from
    ``seed``, so inserting or removing one link does not reshuffle the
    randomness of the others.

    Args:
        trace: The clean capture.
        impairments: Transforms applied left to right.
        seed: Master seed.

    Returns:
        The impaired trace (input is never mutated), with one record per
        impairment appended to ``meta["impairments"]``.
    """
    streams = np.random.default_rng(seed).spawn(len(impairments))
    out = trace
    for impairment, stream in zip(impairments, streams):
        out = impairment.apply(out, stream)
    return out


def heavy_impairments() -> list[Impairment]:
    """The heavy impairment mix: 40 % loss, 8 ms timestamp jitter, 5 %
    impulses at 12× magnitude and 8 nulled subcarriers.

    Compound channel damage: the regime of the paper's worst-case
    through-wall runs, plus commodity-NIC pathologies.
    """
    return [
        BernoulliLoss(loss_fraction=0.4),
        TimestampJitter(std_s=8e-3),
        ImpulsiveCorruption(hit_fraction=0.05, magnitude=12.0),
        SubcarrierNulls(n_nulls=8),
    ]
