"""One function per paper figure: the experiments of Section IV.

Every public function regenerates the data behind one figure of the paper's
evaluation (the paper has no numbered tables).  Functions return plain
dictionaries of arrays/scalars so the benchmark harness can both print the
same rows/series the paper reports and assert the qualitative shape (who
wins, by what rough factor, where crossovers fall).

Trial counts default to values that keep a full run in minutes; every
function takes ``n_trials`` / duration knobs for heavier runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..contracts import FloatArray

from ..core.breathing import fft_breathing_bpm, music_breathing_bpm
from ..core.calibration import calibrate
from ..core.dwt_stage import decompose
from ..core.environment import STATIONARY_BAND, classify_windows, windowed_v
from ..core.phase_difference import phase_difference, raw_phase
from ..core.pipeline import PhaseBeat
from ..core.subcarrier_selection import select_subcarrier
from ..dsp.fft_utils import magnitude_spectrum
from ..dsp.stats import (
    angular_sector_width,
    circular_resultant_length,
    mean_absolute_deviation,
)
from ..errors import EstimationError, NotStationaryError
from ..eval.harness import default_subject, run_breathing_trials
from ..eval.metrics import accuracy, empirical_cdf, multi_person_errors, percentile_error
from ..physio.breathing import SinusoidalBreathing
from ..physio.heartbeat import SinusoidalHeartbeat
from ..physio.motion import ActivityScript
from ..physio.person import Person, random_cohort
from ..rf.receiver import capture_trace
from ..io_.trace import CSITrace
from ..rf.scene import (
    Scenario,
    corridor_scenario,
    laboratory_scenario,
    through_wall_scenario,
)

__all__ = [
    "fig01_phase_stability",
    "fig03_environment_detection",
    "fig04_calibration",
    "fig05_subcarrier_patterns",
    "fig06_dwt_decomposition",
    "fig07_subcarrier_mad",
    "fig08_multiperson_fft_vs_music",
    "fig09_heart_fft",
    "fig11_breathing_cdf",
    "fig12_heart_cdf",
    "fig13_sampling_rate",
    "fig14_num_persons",
    "fig15_distance_corridor",
    "fig16_distance_through_wall",
    "robustness_impairments",
]

def _lab_trace(seed: int = 0, duration_s: float = 30.0, **capture_kwargs):
    person = Person(
        position=(2.2, 3.0, 1.0),
        breathing=SinusoidalBreathing(frequency_hz=0.25),
        heartbeat=SinusoidalHeartbeat(frequency_hz=1.07),
    )
    scenario = laboratory_scenario([person], clutter_seed=seed)
    return capture_trace(
        scenario, duration_s=duration_s, seed=seed, **capture_kwargs
    ), person


def fig01_phase_stability(
    n_packets: int = 600, subcarrier: int = 4, seed: int = 1
) -> dict:
    """Fig. 1: raw phase is uniform on the circle; phase difference is not.

    Reports circular resultant length R (≈0 uniform, ≈1 concentrated) and
    the sector width containing 99% of samples, for the raw phase of one
    antenna versus the cross-antenna phase difference of the same
    subcarrier over ``n_packets`` consecutive packets.
    """
    trace, _ = _lab_trace(seed=seed, duration_s=max(2.0, n_packets / 400.0))
    trace = trace.slice_packets(0, n_packets)
    raw = raw_phase(trace)[:, subcarrier]
    diff = phase_difference(trace, unwrap=False)[:, subcarrier]
    return {
        "subcarrier": subcarrier,
        "n_packets": n_packets,
        "raw_resultant_length": circular_resultant_length(raw),
        "diff_resultant_length": circular_resultant_length(diff),
        "raw_sector_deg": float(np.degrees(angular_sector_width(raw, 0.99))),
        "diff_sector_deg": float(np.degrees(angular_sector_width(diff, 0.99))),
    }


def fig03_environment_detection(seed: int = 1) -> dict:
    """Fig. 3: the V statistic across sitting / empty / standing / walking.

    Runs the paper's one-minute timeline (sitting → no person → standing up
    → walking) and reports the mean windowed V per segment plus the
    classified states.
    """
    person = Person(
        position=(2.2, 3.0, 1.0),
        breathing=SinusoidalBreathing(frequency_hz=0.25),
    )
    script = ActivityScript.figure3_script(seed=seed)
    scenario = dataclasses.replace(
        laboratory_scenario([person], clutter_seed=seed), activity=script
    )
    trace = capture_trace(scenario, duration_s=60.0, seed=seed)
    diff = phase_difference(trace)
    centers, v = windowed_v(diff, trace.sample_rate_hz)
    states = classify_windows(v)

    segment_v = {}
    for event in script.events:
        mask = (centers >= event.start_s) & (centers < event.end_s)
        if mask.any():
            segment_v[event.state.value] = float(np.mean(v[mask]))
    return {
        "window_centers_s": centers,
        "v": v,
        "states": [s.value for s in states],
        "segment_mean_v": segment_v,
        "stationary_band": STATIONARY_BAND,
    }


def fig04_calibration(seed: int = 1) -> dict:
    """Fig. 4: calibration removes the DC offset and high-frequency noise.

    Compares the raw 10 000-packet phase-difference series with the
    calibrated 500-sample series: mean absolute DC level, high-frequency
    (>2 Hz) energy fraction, and sample counts.
    """
    trace, person = _lab_trace(seed=seed, duration_s=25.0)
    diff = phase_difference(trace)
    calibrated = calibrate(diff, trace.sample_rate_hz)

    def _hf_fraction(series: FloatArray, rate_hz: float) -> float:
        freqs, mag = magnitude_spectrum(series, rate_hz)
        power = mag**2
        total = float(power[1:].sum())
        if total == 0:
            return 0.0
        return float(power[freqs > 2.0].sum() / total)

    raw_col = diff[:, 15]
    cal_col = calibrated.series[:, 15]
    return {
        "n_raw_packets": diff.shape[0],
        "n_calibrated_samples": calibrated.n_samples,
        "raw_dc_abs": float(abs(raw_col.mean())),
        "calibrated_dc_abs": float(abs(cal_col.mean())),
        "raw_hf_fraction": _hf_fraction(raw_col - raw_col.mean(), trace.sample_rate_hz),
        "calibrated_hf_fraction": _hf_fraction(cal_col, calibrated.sample_rate_hz),
        "calibrated_rate_hz": calibrated.sample_rate_hz,
        "truth_bpm": person.breathing_rate_bpm,
    }


def fig05_subcarrier_patterns(seed: int = 3) -> dict:
    """Fig. 5: the calibrated per-subcarrier series show a sensitivity
    pattern — neighbouring subcarriers have correlated, smoothly varying
    oscillation strength."""
    trace, _ = _lab_trace(seed=seed, duration_s=25.0)
    calibrated = calibrate(phase_difference(trace), trace.sample_rate_hz)
    mads = mean_absolute_deviation(calibrated.series, axis=0)
    # Smoothness: correlation between neighbouring subcarriers' series.
    series = calibrated.series
    neighbour_corr = [
        float(np.corrcoef(series[:, i], series[:, i + 1])[0, 1])
        for i in range(series.shape[1] - 1)
    ]
    return {
        "series": series,
        "sample_rate_hz": calibrated.sample_rate_hz,
        "mads": mads,
        "mean_neighbour_correlation": float(np.mean(neighbour_corr)),
    }


def fig06_dwt_decomposition(seed: int = 1) -> dict:
    """Fig. 6: level-4 DWT splits breathing (α₄) from heart band (β₃+β₄).

    Reports the energy of the true breathing frequency captured in the
    breathing reconstruction and of the heart frequency in the heart-band
    reconstruction, plus the nominal band edges.
    """
    trace, person = _lab_trace(seed=seed, duration_s=30.0)
    calibrated = calibrate(phase_difference(trace), trace.sample_rate_hz)
    selection = select_subcarrier(calibrated.series)
    series = calibrated.series[:, selection.selected]
    bands = decompose(series, calibrated.sample_rate_hz)

    def _tone_power(signal: FloatArray, rate_hz: float, f0: float) -> float:
        freqs, mag = magnitude_spectrum(signal, rate_hz)
        window = (freqs > f0 - 0.05) & (freqs < f0 + 0.05)
        return float((mag[window] ** 2).sum())

    f_b = person.breathing.frequency_hz
    breathing_in_breath_band = _tone_power(bands.breathing, bands.sample_rate_hz, f_b)
    breathing_in_heart_band = _tone_power(bands.heart, bands.sample_rate_hz, f_b)
    return {
        "breathing_band_hz": bands.breathing_band_hz,
        "heart_band_hz": bands.heart_band_hz,
        "breathing_tone_in_breathing_band": breathing_in_breath_band,
        "breathing_tone_in_heart_band": breathing_in_heart_band,
        "band_separation_ratio": breathing_in_breath_band
        / max(breathing_in_heart_band, 1e-12),
        "level": 4,
        "wavelet": "db4",
    }


def fig07_subcarrier_mad(seed: int = 3, k: int = 3) -> dict:
    """Fig. 7: per-subcarrier MAD profile and the top-k/median selection."""
    trace, _ = _lab_trace(seed=seed, duration_s=25.0)
    calibrated = calibrate(phase_difference(trace), trace.sample_rate_hz)
    selection = select_subcarrier(calibrated.series)
    return {
        "mads": selection.sensitivities,
        "candidates": selection.candidates,
        "selected": selection.selected,
        "max_subcarrier": int(np.argmax(selection.sensitivities)),
    }


def fig08_multiperson_fft_vs_music(
    duration_s: float = 60.0, seed: int = 1
) -> dict:
    """Fig. 8: FFT resolves two persons but fails for three close rates;
    root-MUSIC recovers all three.

    Uses the paper's rates: two persons at 0.20 / 0.30 Hz, three persons at
    0.1467 / 0.2233 / 0.2483 Hz (the latter two only 0.025 Hz apart).
    """
    out: dict = {}
    for label, rates in (
        ("two_persons", (0.20, 0.30)),
        ("three_persons", (0.1467, 0.2233, 0.2483)),
    ):
        # Subjects sit a few meters off the link and modulate the channel
        # gently: the superposition model behind Theorem 2 is a small-signal
        # linearization, and keeping each chest modulation small keeps the
        # harmonics/intermodulation products of the nonlinear phase-of-sum
        # mixing below the weakest fundamental, as in the paper's room.
        positions = ((0.8, 5.5, 1.0), (2.2, 6.2, 1.0), (3.8, 5.8, 1.0))
        persons = [
            Person(
                position=positions[i],
                breathing=SinusoidalBreathing(
                    frequency_hz=f, amplitude_m=3.0e-3, phase=float(0.7 * i)
                ),
                heartbeat=None,
                name=f"subject-{i + 1}",
            )
            for i, f in enumerate(rates)
        ]
        scenario = laboratory_scenario(persons, clutter_seed=seed)
        trace = capture_trace(scenario, duration_s=duration_s, seed=seed)
        calibrated = calibrate(phase_difference(trace), trace.sample_rate_hz)

        n = len(rates)
        truth_bpm = 60.0 * np.asarray(rates)
        try:
            fft_bpm = fft_breathing_bpm(
                calibrated.series, calibrated.sample_rate_hz, n
            )
        except EstimationError:
            fft_bpm = np.empty(0)
        music_bpm = music_breathing_bpm(
            calibrated.series, calibrated.sample_rate_hz, n
        )
        out[label] = {
            "truth_bpm": truth_bpm,
            "fft_bpm": np.asarray(fft_bpm),
            "music_bpm": np.asarray(music_bpm),
            "fft_errors": multi_person_errors(fft_bpm, truth_bpm),
            "music_errors": multi_person_errors(music_bpm, truth_bpm),
        }
    return out


def fig09_heart_fft(seed: int = 3, duration_s: float = 60.0) -> dict:
    """Fig. 9: single-subject heart rate via FFT + 3-bin refinement.

    The paper's subject: estimated 1.07 Hz against a pulse-sensor reading
    of 1.06 Hz (0.6 bpm error).  Uses the directional-TX lab setup.
    """
    person = Person(
        position=(2.2, 3.0, 1.0),
        breathing=SinusoidalBreathing(frequency_hz=0.25),
        heartbeat=SinusoidalHeartbeat(frequency_hz=1.07),
    )
    scenario = laboratory_scenario(
        [person], directional_tx=True, clutter_seed=seed
    )
    trace = capture_trace(scenario, duration_s=duration_s, seed=seed)
    result = PhaseBeat(enforce_stationarity=False).process(trace)
    truth = person.heart_rate_bpm
    return {
        "truth_bpm": truth,
        "estimate_bpm": result.heart_rate_bpm,
        "error_bpm": abs(result.heart_rate_bpm - truth),
        "truth_hz": truth / 60.0,
        "estimate_hz": result.heart_rate_bpm / 60.0,
    }


def fig11_breathing_cdf(n_trials: int = 30, base_seed: int = 100) -> dict:
    """Fig. 11: breathing-error CDF, PhaseBeat vs the amplitude baseline.

    Paper shape: similar medians (~0.25 bpm); PhaseBeat reaches 90% < 0.5
    bpm where the amplitude method reaches only ~70%, with maxima ~0.85 vs
    ~1.7 bpm.
    """
    def factory(k: int, rng: np.random.Generator) -> Scenario:
        return laboratory_scenario(
            [default_subject(rng, with_heartbeat=False)], clutter_seed=base_seed + k
        )

    # Environment detection stays on: the paper estimates only on segments
    # the detector accepts, so trials it rejects are discarded, not scored.
    results = run_breathing_trials(
        factory,
        n_trials,
        methods=("phasebeat", "amplitude"),
        enforce_stationarity=True,
        base_seed=base_seed,
    )
    out: dict = {}
    for method in ("phasebeat", "amplitude"):
        errors = results.errors(method)
        x, p = empirical_cdf(errors)
        out[method] = {
            "errors": errors,
            "cdf_x": x,
            "cdf_p": p,
            "median": percentile_error(errors, 50),
            "p90": percentile_error(errors, 90),
            "max": float(errors.max()),
            "frac_under_half_bpm": float(np.mean(errors <= 0.5)),
            "failure_rate": results.failure_rate(method),
        }
    return out


def fig12_heart_cdf(n_trials: int = 25, base_seed: int = 200) -> dict:
    """Fig. 12: heart-error CDF with the directional-TX lab setup.

    Paper shape: median ≈ 1 bpm, 80% < 2.5 bpm, max ≈ 10 bpm — an order of
    magnitude worse than breathing, because the heart signal is weak.
    """
    pipeline = PhaseBeat(enforce_stationarity=False)
    errors = []
    for k in range(n_trials):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        person = default_subject(
                rng,
                breathing_band_hz=(0.18, 0.30),
                breathing_amplitude_range_m=(2.5e-3, 3.5e-3),
            )
        scenario = laboratory_scenario(
            [person], directional_tx=True, clutter_seed=seed
        )
        trace = capture_trace(scenario, duration_s=60.0, seed=seed)
        try:
            result = pipeline.process(trace)
        except (EstimationError, NotStationaryError):
            continue
        if result.heart_rate_bpm is not None:
            errors.append(abs(result.heart_rate_bpm - person.heart_rate_bpm))
    errors = np.asarray(errors)
    x, p = empirical_cdf(errors)
    return {
        "errors": errors,
        "cdf_x": x,
        "cdf_p": p,
        "median": percentile_error(errors, 50),
        "p80": percentile_error(errors, 80),
        "max": float(errors.max()),
        "n_successful": int(errors.size),
        "n_trials": n_trials,
    }


def fig13_sampling_rate(
    rates_hz: tuple[float, ...] = (20.0, 200.0, 400.0, 600.0),
    n_trials: int = 10,
    base_seed: int = 300,
) -> dict:
    """Fig. 13: estimation accuracy vs packet sampling rate.

    Paper shape: breathing accuracy ≈ 98% and flat across 20–600 Hz; heart
    accuracy ≈ 88% at 20 Hz rising to ≈ 95% at 400 Hz.

    Alongside the paper's accuracy metric this also reports the median
    *heart-tone SNR* per rate — the physical mechanism behind the paper's
    curve: a higher packet rate lets the Hampel/decimation chain average
    more noise out of each 20 Hz output sample, raising the heart peak
    above the spectral floor.  (In the simulator the accuracy mean is also
    perturbed by rate-independent sideband confusions, so the SNR series is
    the cleaner signature; see EXPERIMENTS.md.)
    """
    from ..dsp.fft_utils import band_mask, magnitude_spectrum

    pipeline = PhaseBeat(enforce_stationarity=False)
    out: dict = {
        "rates_hz": list(rates_hz),
        "breathing": [],
        "heart": [],
        "heart_tone_snr": [],
    }
    for rate in rates_hz:
        acc_b, acc_h, snrs = [], [], []
        for k in range(n_trials):
            seed = base_seed + k
            rng = np.random.default_rng(seed)
            person = default_subject(
                rng,
                breathing_band_hz=(0.18, 0.30),
                breathing_amplitude_range_m=(2.5e-3, 3.5e-3),
            )
            scenario = laboratory_scenario(
                [person], directional_tx=True, clutter_seed=seed
            )
            trace = capture_trace(
                scenario, duration_s=60.0, sample_rate_hz=rate, seed=seed
            )
            try:
                result = pipeline.process(trace)
            except (EstimationError, NotStationaryError):
                acc_b.append(0.0)
                acc_h.append(0.0)
                continue
            acc_b.append(
                accuracy(result.breathing_rates_bpm[0], person.breathing_rate_bpm)
            )
            if result.heart_rate_bpm is None:
                acc_h.append(0.0)
            else:
                acc_h.append(accuracy(result.heart_rate_bpm, person.heart_rate_bpm))
            freqs, mag = magnitude_spectrum(
                result.heart_signal, result.diagnostics.calibrated_rate_hz
            )
            in_band = band_mask(freqs, (0.8, 2.0))
            tone = mag[np.argmin(np.abs(freqs - person.heartbeat.frequency_hz))]
            snrs.append(float(tone / max(np.median(mag[in_band]), 1e-12)))
        out["breathing"].append(float(np.mean(acc_b)))
        out["heart"].append(float(np.mean(acc_h)))
        out["heart_tone_snr"].append(float(np.median(snrs)) if snrs else 0.0)
    return out


def fig14_num_persons(
    person_counts: tuple[int, ...] = (2, 3, 4),
    n_trials: int = 8,
    base_seed: int = 400,
    duration_s: float = 120.0,
) -> dict:
    """Fig. 14: multi-person breathing accuracy by estimator.

    Paper shape: all methods > 90% at two persons; accuracy falls with the
    count; root-MUSIC over 30 subcarriers degrades slowest and wins at four
    persons, followed by single-subcarrier root-MUSIC, then FFT.
    """
    methods = {
        "music_30sc": "music",
        "music_1sc": "music-single",
        "fft": "fft",
    }
    pipeline = PhaseBeat(enforce_stationarity=False)
    out: dict = {"person_counts": list(person_counts)}
    accum = {label: [] for label in methods}
    for count in person_counts:
        per_method = {label: [] for label in methods}
        for k in range(n_trials):
            seed = base_seed + 50 * count + k
            cohort = random_cohort(
                count,
                seed=seed,
                realistic=False,
                with_heartbeat=False,
                min_rate_separation_hz=0.025,
                breathing_amplitude_m=(2.5e-3, 3.5e-3),
            )
            scenario = laboratory_scenario(cohort, clutter_seed=seed)
            trace = capture_trace(scenario, duration_s=duration_s, seed=seed)
            truth = 60.0 * np.asarray(
                [p.breathing.frequency_hz for p in cohort]
            )
            for label, method in methods.items():  # phaselint: insertion-order -- methods dict is the declared presentation order
                try:
                    result = pipeline.process(
                        trace,
                        n_persons=count,
                        estimate_heart=False,
                        breathing_method=method,
                    )
                    estimates = np.asarray(result.breathing_rates_bpm)
                except (EstimationError, NotStationaryError):
                    estimates = np.empty(0)
                errors = multi_person_errors(estimates, truth)
                per_method[label].append(
                    float(np.mean([max(0.0, 1.0 - e / t) for e, t in zip(errors, truth)]))
                )
        for label in methods:
            accum[label].append(float(np.mean(per_method[label])))
    out.update(accum)
    return out


def _distance_sweep(
    scenario_builder,
    distances_m: tuple[float, ...],
    n_trials: int,
    base_seed: int,
    person_y=None,
) -> dict:
    """Shared Fig. 15/16 sweep loop.

    ``person_y`` maps the TX–RX distance to the subject's y coordinate; by
    default the subject sits near the middle of the link (the through-wall
    sweep overrides it to keep the subject firmly on the TX side of the
    wall, as in the paper's setup 2).
    """
    if person_y is None:
        def person_y(d: float) -> float:
            return max(0.8, d / 2.0)
    pipeline = PhaseBeat(enforce_stationarity=False)
    mean_errors = []
    for distance in distances_m:
        errors = []
        for k in range(n_trials):
            seed = base_seed + k
            rng = np.random.default_rng(seed + int(distance * 13))
            person = default_subject(
                rng,
                position=(1.5, person_y(distance), 1.0),
                with_heartbeat=False,
            )
            scenario = scenario_builder(distance, [person], seed)
            trace = capture_trace(scenario, duration_s=30.0, seed=seed)
            try:
                result = pipeline.process(trace, estimate_heart=False)
                errors.append(
                    abs(result.breathing_rates_bpm[0] - person.breathing_rate_bpm)
                )
            except (EstimationError, NotStationaryError):
                errors.append(person.breathing_rate_bpm * 0.1)
        mean_errors.append(float(np.mean(errors)))
    return {"distances_m": list(distances_m), "mean_error_bpm": mean_errors}


def fig15_distance_corridor(
    distances_m: tuple[float, ...] = (1.0, 3.0, 5.0, 7.0, 9.0, 11.0),
    n_trials: int = 8,
    base_seed: int = 500,
) -> dict:
    """Fig. 15: mean breathing error vs TX–RX distance in the corridor.

    Paper shape: error grows with distance (weaker reflected signal),
    reaching ≈ 0.3 bpm at 7 m and ≈ 0.55 bpm at 11 m.
    """
    def builder(distance: float, persons: list, seed: int) -> Scenario:
        return corridor_scenario(distance, persons, clutter_seed=seed)

    return _distance_sweep(builder, distances_m, n_trials, base_seed)


def fig16_distance_through_wall(
    distances_m: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
    n_trials: int = 8,
    base_seed: int = 600,
) -> dict:
    """Fig. 16: mean breathing error vs distance, through-wall.

    Paper shape: same rising trend as the corridor but uniformly worse at
    equal distance (≈ 0.52 vs ≈ 0.3 bpm at 7 m) because the wall attenuates
    the signal.
    """
    def builder(distance: float, persons: list, seed: int) -> Scenario:
        return through_wall_scenario(distance, persons, clutter_seed=seed)

    def tx_side_y(distance: float) -> float:
        # Firmly on the TX side of the wall (the wall sits at y = d/2).
        return max(0.4, distance / 2.0 - 0.8)

    return _distance_sweep(
        builder, distances_m, n_trials, base_seed, person_y=tx_side_y
    )


def robustness_impairments(
    loss_fractions: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3),
    gap_lengths_s: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_trials: int = 5,
    duration_s: float = 40.0,
    base_seed: int = 700,
) -> dict:
    """Robustness: breathing error vs injected capture impairments.

    Not a paper figure — the paper evaluates clean 400 pkt/s captures only.
    This experiment asks what a deployed PhaseBeat sees: Bernoulli packet
    loss at increasing rates, and NIC-reset dropout gaps of increasing
    length *on top of* 10% loss, all injected via
    :mod:`repro.rf.impairments` with full seeding.  The hardened pipeline
    (reclock onto a uniform grid when timestamps are non-uniform) should
    hold the median error flat through 10% loss and 1 s gaps; the sweep
    shows where it finally comes apart.
    """
    from ..rf.impairments import BernoulliLoss, DropoutGap, apply_impairments

    # The sweep controls the scene (always a sitting subject), so skip the
    # stationarity gate like the other controlled sweeps do.
    pipeline = PhaseBeat(enforce_stationarity=False)

    def breathing_error(trace: CSITrace, truth_bpm: float) -> float:
        try:
            result = pipeline.process(trace, estimate_heart=False)
        except (NotStationaryError, EstimationError):
            return np.nan
        return abs(result.breathing_rates_bpm[0] - truth_bpm)

    clean_err = np.empty(n_trials)
    loss_err = np.empty((len(loss_fractions), n_trials))
    gap_err = np.empty((len(gap_lengths_s), n_trials))
    for trial in range(n_trials):
        seed = base_seed + trial
        trace, person = _lab_trace(seed=seed, duration_s=duration_s)
        truth = person.breathing_rate_bpm
        clean_err[trial] = breathing_error(trace, truth)
        for i, fraction in enumerate(loss_fractions):
            impaired = apply_impairments(
                trace,
                [BernoulliLoss(fraction)] if fraction > 0 else [],
                seed=seed,
            )
            loss_err[i, trial] = breathing_error(impaired, truth)
        for i, gap in enumerate(gap_lengths_s):
            impaired = apply_impairments(
                trace,
                [BernoulliLoss(0.1), DropoutGap(gap)],
                seed=seed,
            )
            gap_err[i, trial] = breathing_error(impaired, truth)

    return {
        "loss_fractions": list(loss_fractions),
        "gap_lengths_s": list(gap_lengths_s),
        "clean_median_err": float(np.nanmedian(clean_err)),
        "loss_median_err": np.nanmedian(loss_err, axis=1),
        "loss_p90_err": np.nanpercentile(loss_err, 90, axis=1),
        "gap_median_err": np.nanmedian(gap_err, axis=1),
        "gap_p90_err": np.nanpercentile(gap_err, 90, axis=1),
        "n_failed": int(np.isnan(loss_err).sum() + np.isnan(gap_err).sum()),
    }
