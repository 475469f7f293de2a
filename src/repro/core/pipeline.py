"""The end-to-end PhaseBeat pipeline (paper Fig. 2).

:class:`PhaseBeat` wires the four modules together:

1. **Data Extraction** — cross-antenna phase difference from the trace.
2. **Data Preprocessing** — environment detection, calibration, subcarrier
   selection, DWT band split.
3. **Breathing Rate Estimation** — peak detection (one person) or
   root-MUSIC over all 30 subcarriers (multiple persons).
4. **Heart Rate Estimation** — FFT with 3-bin phase refinement on the DWT
   detail band.

Typical use::

    from repro import PhaseBeat, laboratory_scenario, capture_trace

    trace = capture_trace(laboratory_scenario(), duration_s=60.0)
    result = PhaseBeat().process(trace)
    print(result.breathing_rates_bpm, result.heart_rate_bpm)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..contracts import BoolArray, FloatArray, check_trace
from ..dsp.resample import reclock
from ..dsp.template import subtract_cycle_template
from ..errors import NotStationaryError, SignalTooShortError
from ..io_.trace import CSITrace
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..physio.motion import ActivityState
from .breathing import fft_breathing_bpm, music_breathing_bpm, peak_breathing_bpm
from .calibration import calibrate
from .dwt_stage import decompose
from .environment import (
    STATIONARY_BAND,
    V_WINDOW_S,
    classify_v,
    v_statistic,
    windowed_v,
)
from .heart import HEART_SEARCH_BAND_HZ, fft_heart_bpm
from .phase_difference import wrapped_pair_matrix
from .results import PhaseBeatResult, PipelineDiagnostics, VitalSignEstimate
from .subcarrier_selection import amplitude_quality_mask, select_subcarrier

__all__ = [
    "PhaseBeat",
    "pair_difference_matrix",
    "prepare_calibrated_matrix",
]


def _antenna_pairs(n_rx: int) -> list[tuple[int, int]]:
    """The antenna pairs to draw phase differences from.

    Pair (0, 1), and on a NIC of three or more chains also pair (1, 2),
    so subcarrier selection chooses across both.  A chest reflection can
    sit at a *null point* of one pair's phase response (the static
    operating phase makes the breathing fundamental vanish, leaving only
    its second harmonic); the other pair, a half-wavelength away, almost
    never nulls simultaneously.  The paper's hardware exposes all three
    chains, so the second pair is free diversity.
    """
    if n_rx >= 3:
        return [(0, 1), (1, 2)]
    return [(0, 1)]


@check_trace()
def pair_difference_matrix(
    trace: CSITrace,
    antenna_pairs: Sequence[tuple[int, int]],
    *,
    needs_reclock: bool = False,
    instrumentation: Instrumentation | None = None,
) -> FloatArray:
    """Unwrapped phase differences for several pairs, on a uniform grid.

    The batched front door of the pipeline: one conjugate product, one
    unwrap, and (when the capture is non-uniform) one reclock for all pairs
    together, replacing the per-pair extraction loop.  Column block ``p``
    holds pair ``antenna_pairs[p]``'s ``n_subcarriers`` series, bitwise
    equal to the per-pair path — unwrap and interpolation both act
    per column.

    Every downstream stage (Hampel windows in seconds, decimation, DWT,
    FFT) assumes uniform sampling at ``trace.sample_rate_hz``.  A clean
    capture satisfies that by construction; a lossy/jittered/glitched one
    does not, so its series is interpolated onto the nominal-rate grid
    first (dropping clock-glitch victims) instead of silently treating
    packet index as time.

    Args:
        trace: The capture.
        antenna_pairs: Pairs ``(a, b)`` of receive-chain indices.
        needs_reclock: Interpolate onto the nominal-rate grid (callers pass
            ``not trace.quality_report().is_uniform``).
        instrumentation: Forwarded to :func:`repro.dsp.resample.reclock`.

    Returns:
        ``[n_packets × n_pairs·n_subcarriers]`` unwrapped differences.
    """
    diff = np.unwrap(wrapped_pair_matrix(trace.csi, antenna_pairs), axis=0)
    if not needs_reclock:
        return diff
    return reclock(
        diff,
        trace.timestamps_s,
        trace.sample_rate_hz,
        instrumentation=instrumentation,
    ).series


@check_trace()
def prepare_calibrated_matrix(
    trace: CSITrace,
) -> tuple[FloatArray, BoolArray, float]:
    """Phase-difference extraction + calibration for one or more pairs.

    The shared front half of the pipeline, exposed for experiments and
    ablations that want the same calibrated, quality-gated subcarrier
    matrix the estimator stages see (including antenna-pair diversity).
    Extraction and calibration run batched over all pairs' columns at once.

    Args:
        trace: The capture.  Its antenna pairs are stacked column-wise,
            as in :class:`PhaseBeat` (both adjacent pairs of a 3-chain NIC).

    Returns:
        ``(matrix, quality, sample_rate_hz)`` -- the stacked calibrated
        series of shape ``(n_samples, 30 * n_pairs)``, the per-column
        eligibility mask, and the post-calibration rate.
    """
    antenna_pairs = _antenna_pairs(trace.n_rx)
    needs_reclock = not trace.quality_report().is_uniform
    diff = pair_difference_matrix(
        trace, antenna_pairs, needs_reclock=needs_reclock
    )
    calibrated = calibrate(diff, trace.sample_rate_hz)
    masks = [amplitude_quality_mask(trace, pair) for pair in antenna_pairs]
    return calibrated.series, np.concatenate(masks), calibrated.sample_rate_hz


class PhaseBeat:
    """CSI phase-difference vital-sign monitor.

    Every algorithmic parameter is the paper default held as a module
    constant of its stage (DESIGN.md, "Key algorithmic parameters", names
    the holder of each).

    Args:
        enforce_stationarity: Raise :class:`NotStationaryError` when the
            segment fails environment detection; when False the pipeline
            estimates anyway (used by sweeps that control the scene).
        instrumentation: Optional :class:`repro.obs.Instrumentation`; when
            given, every stage of :meth:`process` is timed into the
            ``pipeline_stage_duration_s`` histogram (see
            ``docs/observability.md``).
    """

    def __init__(
        self,
        enforce_stationarity: bool = True,
        instrumentation: Instrumentation | None = None,
    ):
        self.enforce_stationarity = enforce_stationarity
        self._obs = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )

    @check_trace()
    def process(
        self,
        trace: CSITrace,
        *,
        n_persons: int = 1,
        estimate_heart: bool = True,
        breathing_method: str | None = None,
    ) -> PhaseBeatResult:
        """Run the full pipeline on one trace.

        Args:
            trace: Captured CSI.
            n_persons: Number of subjects to resolve; 1 uses peak detection,
                >1 uses root-MUSIC (paper Section III-C).
            estimate_heart: Also estimate heart rate (single-person only —
                the paper does not attempt multi-person heart rates).
            breathing_method: Force ``"peak"``, ``"fft"``, ``"music"``,
                ``"music-single"`` (root-MUSIC on the selected subcarrier
                only) or ``"tensorbeat"`` (the Hankel-tensor CP method of
                the authors' follow-up); ``None`` chooses by ``n_persons``.

        Returns:
            :class:`PhaseBeatResult`.

        Raises:
            NotStationaryError: If environment detection rejects the
                segment and ``enforce_stationarity`` is set.
            EstimationError: If an estimator cannot produce a rate.
        """
        obs = self._obs
        pairs = _antenna_pairs(trace.n_rx)
        quality_report = trace.quality_report()
        needs_reclock = not quality_report.is_uniform
        n_sub = trace.n_subcarriers
        with obs.stage("phase_difference"):
            diff = pair_difference_matrix(
                trace, pairs, needs_reclock=needs_reclock, instrumentation=obs
            )

        with obs.stage("environment_detection"):
            v, state = self.classify_environment(
                diff[:, :n_sub], trace.sample_rate_hz
            )
        if self.enforce_stationarity and state is not ActivityState.SITTING:
            obs.count(
                "pipeline_not_stationary_total",
                help_text="Traces rejected by environment detection.",
            )
            raise NotStationaryError(v, state.value)

        # Calibrate every pair's columns in one batched call; selection and
        # the multi-person stages then draw on the diversity of both
        # baselines.
        with obs.stage("calibration"):
            calibrated = calibrate(diff, trace.sample_rate_hz)
            quality = np.concatenate(
                [amplitude_quality_mask(trace, pair) for pair in pairs]
            )
        return self.estimate_from_matrix(
            calibrated.series,
            quality,
            calibrated.sample_rate_hz,
            antenna_pairs=pairs,
            n_subcarriers=n_sub,
            v_statistic_value=v,
            environment_state=state,
            n_persons=n_persons,
            estimate_heart=estimate_heart,
            breathing_method=breathing_method,
            reclocked=needs_reclock,
            input_loss_fraction=quality_report.loss_fraction,
        )

    def classify_environment(
        self,
        diff: FloatArray,
        sample_rate_hz: float,
        *,
        v_memo: dict[int, float] | None = None,
        first_row: int = 0,
    ) -> tuple[float, ActivityState]:
        """Environment detection on an unwrapped phase-difference matrix.

        Computes the segment V statistic and classifies it against the
        stationary band; a borderline SITTING verdict is
        re-checked with sliding windows so a motion burst occupying only
        part of the segment (whole-segment V inside the band, estimate
        corrupted anyway) is still flagged as WALKING.

        Args:
            diff: ``[n_samples × n_subcarriers]`` unwrapped differences of
                a single antenna pair.
            sample_rate_hz: Their sample rate.
            v_memo: Sliding-window V memo passed to
                :func:`~repro.core.environment.windowed_v`.
            first_row: Absolute index of ``diff``'s row 0 (memo keys).

        Returns:
            ``(v, state)`` — the deciding V statistic (the max windowed V
            when escalated) and the activity classification.
        """
        v = v_statistic(diff)
        state = classify_v(v)
        if state is not ActivityState.SITTING:
            return v, state
        window = int(round(V_WINDOW_S * sample_rate_hz))
        if diff.shape[0] >= 2 * window:
            _, windowed = windowed_v(
                diff, sample_rate_hz, memo=v_memo, first_row=first_row
            )
            if windowed.max() > STATIONARY_BAND[1]:
                return float(windowed.max()), ActivityState.WALKING
        return v, ActivityState.SITTING

    def estimate_from_matrix(
        self,
        matrix: FloatArray,
        quality: BoolArray,
        sample_rate_hz: float,
        *,
        antenna_pairs: Sequence[tuple[int, int]],
        n_subcarriers: int,
        v_statistic_value: float,
        environment_state: ActivityState,
        n_persons: int = 1,
        estimate_heart: bool = True,
        breathing_method: str | None = None,
        reclocked: bool = False,
        input_loss_fraction: float = 0.0,
    ) -> PhaseBeatResult:
        """Estimation back half: selection → DWT → breathing → heart.

        Everything downstream of calibration, operating on an
        already-calibrated stacked matrix.  :meth:`process` calls this after
        its batched front half; the incremental
        :class:`repro.core.streaming.StreamingMonitor` calls it directly
        with windows served by its running calibration engine, so both
        paths share one implementation of the estimator stages.

        Args:
            matrix: ``[n_samples × n_pairs·n_subcarriers]`` calibrated
                series (column blocks ordered as ``antenna_pairs``).
            quality: Per-column eligibility mask.
            sample_rate_hz: Post-calibration rate of ``matrix``.
            antenna_pairs: The pairs behind each column block (diagnostics).
            n_subcarriers: Columns per pair block.
            v_statistic_value: Environment V statistic (diagnostics).
            environment_state: Environment classification (diagnostics).
            n_persons: As in :meth:`process`.
            estimate_heart: As in :meth:`process`.
            breathing_method: As in :meth:`process`.
            reclocked: Whether the source series were reclocked.
            input_loss_fraction: Capture loss fraction (diagnostics).

        Returns:
            :class:`PhaseBeatResult`.
        """
        obs = self._obs
        with obs.stage("subcarrier_selection"):
            selection = select_subcarrier(matrix, mask=quality)
        selected_series = matrix[:, selection.selected]
        selected_pair = antenna_pairs[selection.selected // n_subcarriers]
        with obs.stage("dwt"):
            bands = decompose(selected_series, sample_rate_hz)

        eligible = matrix[:, quality] if quality.any() else matrix
        method = breathing_method or ("peak" if n_persons == 1 else "music")
        with obs.stage("breathing_estimation"):
            breathing = self._estimate_breathing(
                method, bands.breathing, eligible, selected_series,
                sample_rate_hz, n_persons,
            )

        heart = None
        heart_signal = bands.heart
        if estimate_heart and n_persons == 1:
            with obs.stage("heart_estimation"):
                f_breath = breathing[0].rate_bpm / 60.0
                heart_signal = self._best_heart_signal(
                    matrix, quality, selection.sensitivities, sample_rate_hz,
                    f_breath,
                )
                if heart_signal is None:
                    heart_signal = bands.heart
                rate = fft_heart_bpm(
                    heart_signal,
                    bands.sample_rate_hz,
                    breathing_rate_hz=f_breath,
                )
                heart = VitalSignEstimate(rate_bpm=rate, method="fft+3bin")
        obs.count(
            "pipeline_processed_traces_total",
            labels={"method": method},
            help_text="Traces fully processed, by breathing method.",
        )

        diagnostics = PipelineDiagnostics(
            v_statistic=v_statistic_value,
            environment_state=environment_state,
            selected_subcarrier=selection.selected % n_subcarriers,
            selected_antenna_pair=selected_pair,
            candidate_subcarriers=tuple(
                c % n_subcarriers for c in selection.candidates
            ),
            sensitivities=selection.sensitivities,
            calibrated_rate_hz=sample_rate_hz,
            n_calibrated_samples=matrix.shape[0],
            breathing_band_hz=bands.breathing_band_hz,
            heart_band_hz=bands.heart_band_hz,
            reclocked=reclocked,
            input_loss_fraction=input_loss_fraction,
        )
        return PhaseBeatResult(
            breathing=breathing,
            heart=heart,
            diagnostics=diagnostics,
            breathing_signal=bands.breathing,
            heart_signal=heart_signal,
        )

    def _best_heart_signal(
        self,
        stacked: FloatArray,
        quality: BoolArray,
        sensitivities: FloatArray,
        sample_rate_hz: float,
        f_breath: float,
        n_candidates: int = 8,
    ) -> FloatArray | None:
        """Heart-band series from the candidate column with the best peak.

        Heart-stage subcarrier selection: the breathing-MAD selection can
        pick a series whose geometry nulls the (far weaker) heart
        modulation, so the heart stage re-selects among the top-MAD
        candidates by the quantity that actually matters to it — the
        heart-band peak SNR after the breathing-locked waveform (fundamental
        plus harmonic comb, see :func:`subtract_cycle_template`) has been
        removed.  Returns ``None`` when no candidate can be cleansed.
        """
        from ..dsp.fft_utils import band_mask, magnitude_spectrum

        eligible = np.flatnonzero(quality) if quality.any() else np.arange(
            stacked.shape[1]
        )
        order = eligible[np.argsort(sensitivities[eligible])[::-1]]
        cleansed_columns = []
        for column in order[:n_candidates]:
            try:
                cleansed_columns.append(
                    subtract_cycle_template(
                        stacked[:, column], sample_rate_hz, f_breath
                    )
                )
            except SignalTooShortError:
                continue
        if not cleansed_columns:
            return None
        # One DWT and one FFT over the matrix of surviving candidates
        # replace a per-candidate decompose/spectrum loop.
        try:
            candidates = decompose(
                np.column_stack(cleansed_columns), sample_rate_hz
            ).heart
        except SignalTooShortError:
            return None
        freqs, mags = magnitude_spectrum(candidates, sample_rate_hz)
        mask = band_mask(freqs, HEART_SEARCH_BAND_HZ)
        if not mask.any():
            return None
        in_band = mags[mask]
        floors = np.maximum(np.median(in_band, axis=0), 1e-12)
        best = int(np.argmax(in_band.max(axis=0) / floors))
        return candidates[:, best]

    def _estimate_breathing(
        self,
        method: str,
        breathing_band: FloatArray,
        calibrated_matrix: FloatArray,
        selected_series: FloatArray,
        sample_rate_hz: float,
        n_persons: int,
    ) -> tuple[VitalSignEstimate, ...]:
        if method == "peak":
            rate = peak_breathing_bpm(breathing_band, sample_rate_hz)
            return (VitalSignEstimate(rate_bpm=rate, method="peak"),)
        if method == "fft":
            rates = fft_breathing_bpm(
                breathing_band if n_persons == 1 else calibrated_matrix,
                sample_rate_hz,
                n_persons,
            )
            return tuple(
                VitalSignEstimate(rate_bpm=float(r), method="fft") for r in rates
            )
        if method == "music":
            rates = music_breathing_bpm(calibrated_matrix, sample_rate_hz, n_persons)
            return tuple(
                VitalSignEstimate(rate_bpm=float(r), method="root-music")
                for r in rates
            )
        if method == "music-single":
            rates = music_breathing_bpm(selected_series, sample_rate_hz, n_persons)
            return tuple(
                VitalSignEstimate(rate_bpm=float(r), method="root-music-1sc")
                for r in rates
            )
        if method == "tensorbeat":
            # Imported lazily: the extension is optional machinery.
            from ..extensions.tensorbeat import tensorbeat_breathing_bpm

            rates = tensorbeat_breathing_bpm(
                calibrated_matrix, sample_rate_hz, n_persons
            )
            return tuple(
                VitalSignEstimate(rate_bpm=float(r), method="tensorbeat")
                for r in rates
            )
        raise ValueError(
            f"unknown breathing method {method!r}; expected 'peak', 'fft', "
            "'music', 'music-single', or 'tensorbeat'"
        )
