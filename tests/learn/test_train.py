"""Training pipeline: corpus shape, store path, byte-reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro import capture_trace, laboratory_scenario
from repro.errors import ConfigurationError, EstimationError
from repro.learn import (
    FEATURE_NAMES,
    TrainingConfig,
    dump_bundle,
    generate_corpus,
    train,
    train_from_store,
)
from repro.learn.train import TRUTH_BREATHING_BAND_HZ
from repro.obs import MetricsRegistry
from repro.obs.instrument import Instrumentation
from repro.service.clock import SimulatedClock
from repro.service.sources import TracePacketSource
from repro.store import DirectoryBackend, RecordingTap

FAST = TrainingConfig(mode="synthetic", n_windows=32, seed=5, with_mlp=False)


class TestTrainingConfig:
    def test_defaults_validate(self):
        TrainingConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown training mode"):
            TrainingConfig(mode="quantum")
        with pytest.raises(ConfigurationError, match="n_windows"):
            TrainingConfig(n_windows=4)


class TestGenerateCorpus:
    def test_synthetic_corpus_shape_and_labels(self):
        corpus = generate_corpus(FAST)
        assert corpus.features.shape == (corpus.n_windows, len(FEATURE_NAMES))
        assert corpus.n_windows >= 8
        assert corpus.feature_names == FEATURE_NAMES
        lo_hz, hi_hz = TRUTH_BREATHING_BAND_HZ
        assert np.all(corpus.rates_bpm >= lo_hz * 60.0 - 1e-9)
        assert np.all(corpus.rates_bpm <= hi_hz * 60.0 + 1e-9)
        assert set(np.unique(corpus.apnea_labels)) <= {0.0, 1.0}
        assert corpus.apnea_labels.max() == 1.0  # apnea windows present

    def test_corpus_is_seed_deterministic(self):
        first = generate_corpus(FAST)
        second = generate_corpus(FAST)
        assert first.features.tobytes() == second.features.tobytes()
        assert np.array_equal(first.rates_bpm, second.rates_bpm)

    def test_window_counter_lands_in_metrics(self):
        registry = MetricsRegistry()
        corpus = generate_corpus(
            FAST, instrumentation=Instrumentation(registry=registry)
        )
        names = {
            metric["name"] for metric in registry.snapshot()["metrics"]
        }
        assert "learn_train_windows_total" in names
        assert corpus.n_windows > 0


class TestTrain:
    def test_bundle_fits_the_corpus_it_trained_on(self):
        bundle = train(FAST)
        assert bundle.breathing_model.fitted
        assert bundle.breathing_mlp is None  # with_mlp=False
        assert bundle.apnea_model is not None
        assert bundle.meta["mode"] == "synthetic"
        assert bundle.meta["train_mae_bpm"] < 5.0

    def test_mlp_head_optional(self, synthetic_bundle):
        assert synthetic_bundle.breathing_mlp is not None
        assert synthetic_bundle.breathing_mlp.fitted

    @pytest.mark.determinism
    def test_same_seed_trains_byte_identical_bundles(self):
        first = dump_bundle(train(FAST))
        second = dump_bundle(train(FAST))
        assert first == second

    @pytest.mark.determinism
    def test_different_seeds_train_different_bundles(self):
        other = TrainingConfig(
            mode="synthetic", n_windows=32, seed=6, with_mlp=False
        )
        assert dump_bundle(train(FAST)) != dump_bundle(train(other))


class TestTrainFromStore:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory, lab_person):
        root = tmp_path_factory.mktemp("learn_store")
        scenario = laboratory_scenario([lab_person], clutter_seed=9)
        # Long enough that 20 s windows at a 10 s hop (11 of them) clear
        # the >= 8 window floor the trainer enforces.
        trace = capture_trace(
            scenario, duration_s=120.0, sample_rate_hz=50.0, seed=9
        )
        tap = RecordingTap(
            TracePacketSource(trace, SimulatedClock()),
            DirectoryBackend(str(root)),
            "learncorpus",
            sample_rate_hz=50.0,
            session_id="learn-test",
            meta={
                "breathing_rates_bpm": [
                    float(r) for r in trace.meta["breathing_rates_bpm"]
                ]
            },
        )
        while not tap.exhausted:
            tap.next_packet()
        tap.close()
        return str(root)

    def test_trains_a_rate_head_from_recorded_segments(self, store_dir):
        config = TrainingConfig(mode="synthetic", n_windows=8, with_mlp=False)
        bundle = train_from_store(store_dir, config=config)
        assert bundle.breathing_model.fitted
        assert bundle.apnea_model is None  # stores carry no apnea truth
        assert bundle.meta["mode"] == "store"

    def test_store_training_is_byte_reproducible(self, store_dir):
        config = TrainingConfig(mode="synthetic", n_windows=8, with_mlp=False)
        first = dump_bundle(train_from_store(store_dir, config=config))
        second = dump_bundle(train_from_store(store_dir, config=config))
        assert first == second

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no .cst stores"):
            train_from_store(str(tmp_path))

    def test_too_small_store_corpus_rejected(self, tmp_path, lab_person):
        scenario = laboratory_scenario([lab_person], clutter_seed=10)
        trace = capture_trace(
            scenario, duration_s=12.0, sample_rate_hz=50.0, seed=10
        )
        tap = RecordingTap(
            TracePacketSource(trace, SimulatedClock()),
            DirectoryBackend(str(tmp_path)),
            "tiny",
            sample_rate_hz=50.0,
            meta={
                "breathing_rates_bpm": [
                    float(r) for r in trace.meta["breathing_rates_bpm"]
                ]
            },
        )
        while not tap.exhausted:
            tap.next_packet()
        tap.close()
        with pytest.raises(EstimationError, match="too small"):
            train_from_store(str(tmp_path))
