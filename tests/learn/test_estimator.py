"""LearnedEstimator: serving accuracy, refusals, cache, instrumentation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.io_.trace import CSITrace
from repro.core.breathing import BREATHING_SEARCH_BAND_HZ
from repro.learn import LearnedEstimator
from repro.obs import MetricsRegistry
from repro.obs.instrument import Instrumentation


def tiny_trace(n_packets: int = 8) -> CSITrace:
    """A trace far below the feature extractor's minimum window."""
    rng = np.random.default_rng(0)
    csi = (
        rng.standard_normal((n_packets, 2, 8))
        + 1j * rng.standard_normal((n_packets, 2, 8))
    ).astype(np.complex64)
    return CSITrace(
        csi=csi,
        timestamps_s=np.arange(n_packets) / 50.0,
        sample_rate_hz=50.0,
        subcarrier_indices=np.arange(8),
        meta={},
        strict=False,
    )


class TestServing:
    def test_estimates_near_truth_on_a_clean_window(
        self, synthetic_bundle, short_lab_trace
    ):
        estimator = LearnedEstimator(synthetic_bundle)
        estimate = estimator.estimate_breathing_bpm(short_lab_trace)
        # 15 bpm ground truth; the synthetic-corpus model generalizes to
        # the RF front half within a loose bound.
        assert estimate == pytest.approx(15.0, abs=4.0)

    def test_estimate_clamped_to_the_breathing_band(
        self, synthetic_bundle, short_lab_trace
    ):
        estimator = LearnedEstimator(synthetic_bundle)
        lo_hz, hi_hz = BREATHING_SEARCH_BAND_HZ
        estimate = estimator.estimate_breathing_bpm(short_lab_trace)
        assert lo_hz * 60.0 <= estimate <= hi_hz * 60.0

    def test_mlp_head_served_on_request(
        self, synthetic_bundle, short_lab_trace
    ):
        ridge = LearnedEstimator(synthetic_bundle)
        mlp = LearnedEstimator(synthetic_bundle, use_mlp=True)
        assert ridge.estimate_breathing_bpm(
            short_lab_trace
        ) != mlp.estimate_breathing_bpm(short_lab_trace)

    def test_stale_catalogue_refused_at_construction(self, synthetic_bundle):
        from repro.learn import LearnedBundle

        stale = LearnedBundle(
            feature_names=synthetic_bundle.feature_names[:-1],
            breathing_model=synthetic_bundle.breathing_model,
        )
        with pytest.raises(ConfigurationError, match="feature"):
            LearnedEstimator(stale)


class TestRefusals:
    def test_short_window_raises_estimation_error(self, synthetic_bundle):
        estimator = LearnedEstimator(synthetic_bundle)
        with pytest.raises(EstimationError):
            estimator.estimate_breathing_bpm(tiny_trace())

    def test_apnea_probability_without_head(
        self, synthetic_bundle, short_lab_trace
    ):
        # A store-trained bundle has no apnea head (no apnea ground truth).
        bundle = dataclasses.replace(synthetic_bundle, apnea_model=None)
        estimator = LearnedEstimator(bundle)
        with pytest.raises(ConfigurationError, match="no apnea"):
            estimator.apnea_probability(short_lab_trace)


class TestFeatureCacheAndMetrics:
    def test_repeat_window_hits_the_feature_cache(
        self, synthetic_bundle, short_lab_trace
    ):
        registry = MetricsRegistry()
        estimator = LearnedEstimator(
            synthetic_bundle,
            instrumentation=Instrumentation(registry=registry),
        )
        first = estimator.estimate_breathing_bpm(short_lab_trace)
        second = estimator.estimate_breathing_bpm(short_lab_trace)
        assert first == second
        by_name = {
            metric["name"]: metric
            for metric in registry.snapshot()["metrics"]
            if metric["kind"] == "counter"
        }
        assert by_name["learn_feature_cache_misses_count"]["value"] == 1.0
        assert by_name["learn_feature_cache_hits_count"]["value"] == 1.0

    def test_inference_counter_labels_the_served_head(
        self, synthetic_bundle, short_lab_trace
    ):
        registry = MetricsRegistry()
        estimator = LearnedEstimator(
            synthetic_bundle,
            instrumentation=Instrumentation(registry=registry),
        )
        estimator.estimate_breathing_bpm(short_lab_trace)
        estimator.apnea_probability(short_lab_trace)
        heads = {
            metric["labels"].get("head")
            for metric in registry.snapshot()["metrics"]
            if metric["name"] == "learn_inferences_total"
        }
        assert heads == {"rate", "apnea"}

    def test_cache_stays_bounded(self, synthetic_bundle, short_lab_trace):
        estimator = LearnedEstimator(synthetic_bundle)
        n = short_lab_trace.n_packets
        for k in range(12):
            piece = CSITrace(
                csi=short_lab_trace.csi[: n - k],
                timestamps_s=short_lab_trace.timestamps_s[: n - k],
                sample_rate_hz=short_lab_trace.sample_rate_hz,
                subcarrier_indices=short_lab_trace.subcarrier_indices,
                meta={},
                strict=False,
            )
            estimator.estimate_breathing_bpm(piece)
        assert len(estimator._feature_cache) <= 8
