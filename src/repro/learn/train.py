"""Corpus generation and training for the learned estimator track.

Two corpus sources, both fully seeded:

* **simulator corpora** — windows captured from :mod:`repro.rf.scene`
  scenes (laboratory and through-wall), degraded through
  :mod:`repro.rf.impairments` packet loss at several severities, with
  scripted apneic pauses mixed in for the apnea head.  ``mode="synthetic"``
  swaps the RF chain for direct calibrated-matrix synthesis (same feature
  path, ~50x faster) — used by the chaos/sanitize scenarios where training
  happens in-process;
* **recorded ``.cst`` stores** — :func:`corpus_from_store` reads each
  store once through :class:`repro.store.TraceReader`, calibrates it once
  and slices the calibrated matrix into windows.

Training is deterministic end to end: window ``k`` of a corpus draws from
``default_rng((seed, k))``, the models are closed-form or fixed-iteration,
and :func:`repro.learn.persist.dump_bundle` canonicalizes the artifact —
so the same config yields byte-identical bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..contracts import FloatArray
from ..core.pipeline import prepare_calibrated_matrix
from ..errors import ConfigurationError, EstimationError, ReproError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..physio.breathing import ApneicBreathing, SinusoidalBreathing
from ..physio.person import Person
from ..rf.impairments import (
    BernoulliLoss,
    ImpulsiveCorruption,
    SubcarrierNulls,
    TimestampJitter,
    apply_impairments,
)
from ..rf.receiver import capture_trace
from ..rf.scene import laboratory_scenario, through_wall_scenario
from .features import FEATURE_NAMES, matrix_features, window_features
from .models import LogisticClassifier, RidgeRegressor, TinyMLP
from .persist import LearnedBundle

__all__ = [
    "APNEA_FRACTION",
    "LOSS_FRACTIONS",
    "SAMPLE_RATE_HZ",
    "SCENARIOS",
    "STORE_HOP_S",
    "TRUTH_BREATHING_BAND_HZ",
    "WINDOW_DURATION_S",
    "TrainingConfig",
    "FeatureDataset",
    "generate_corpus",
    "corpus_from_store",
    "train",
    "train_from_store",
]

_MODES = ("synthetic", "rf")

# The corpus recipe.  Capture length per window (serving windows vary, so
# each window is drawn from 0.7-1.6 times this).
WINDOW_DURATION_S = 20.0
# Packet rate of ``rf``-mode captures.
SAMPLE_RATE_HZ = 50.0
# Scene families ``rf`` mode cycles through.
SCENARIOS = ("lab", "through-wall")
# Packet-loss severities the corpus cycles through.
LOSS_FRACTIONS = (0.0, 0.3, 0.6)
# Probability a window carries a scripted apneic pause (trains the apnea
# head).
APNEA_FRACTION = 0.25
# Ground-truth breathing-rate range sampled.
TRUTH_BREATHING_BAND_HZ = (0.15, 0.5)
# Hop between window starts when slicing a recorded store.
STORE_HOP_S = 10.0


@dataclass(frozen=True)
class TrainingConfig:
    """Seeded corpus + model parameters.

    Attributes:
        mode: ``"rf"`` captures windows through the full simulator chain;
            ``"synthetic"`` synthesizes calibrated matrices directly (same
            features, much faster — the chaos harness's choice).
        n_windows: Corpus size (windows attempted; degraded windows that
            fail feature extraction are skipped and counted).
        seed: Master seed; window ``k`` draws from ``(seed, k)``.
        with_mlp: Also fit the MLP rate head.
    """

    mode: str = "synthetic"
    n_windows: int = 160
    seed: int = 0
    with_mlp: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown training mode {self.mode!r}; expected one of "
                f"{_MODES}"
            )
        if self.n_windows < 8:
            raise ConfigurationError("n_windows must be >= 8")


@dataclass(frozen=True)
class FeatureDataset:
    """One featurized corpus.

    Attributes:
        features: ``[n_windows x n_features]`` matrix.
        rates_bpm: Ground-truth breathing rate per window.
        apnea_labels: 1.0 where the window carries an apneic pause.
        feature_names: Column catalogue of :attr:`features`.
        n_skipped: Windows dropped because feature extraction refused
            them (too degraded).
    """

    features: FloatArray
    rates_bpm: FloatArray
    apnea_labels: FloatArray
    feature_names: tuple[str, ...] = FEATURE_NAMES
    n_skipped: int = 0

    @property
    def n_windows(self) -> int:
        """Number of usable windows in the corpus."""
        return int(self.features.shape[0])


def _synthetic_window(
    rng: np.random.Generator,
) -> tuple[FloatArray, float, float, float]:
    """One synthetic calibrated matrix + (rate_hz, truth_bpm, apnea)."""
    # A 50 Hz capture decimates to 25 Hz through the default calibration
    # (target 20 Hz, integer factor 2) — match it so rate-linked features
    # agree between synthetic and captured corpora.
    rate_hz = 25.0
    # Serving windows vary (the supervisor serves ~15 s windows, offline
    # eval 30 s) — span that range so duration-linked features generalize.
    duration_s = float(rng.uniform(0.7, 1.6) * WINDOW_DURATION_S)
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    frequency_hz = float(rng.uniform(*TRUTH_BREATHING_BAND_HZ))
    n_columns = 24
    n_responsive = int(rng.integers(6, 18))
    noise_scale = float(rng.uniform(0.3, 2.5))
    # Chest-motion spectra are frequently harmonic-dominant (path-length
    # nonlinearity); teach the model both regimes.
    harmonic_ratio = (
        float(rng.uniform(0.8, 2.2))
        if rng.random() < 0.4
        else float(rng.uniform(0.1, 0.5))
    )

    gate = np.ones(n)
    apnea = 0.0
    if rng.random() < APNEA_FRACTION:
        apnea = 1.0
        start = float(rng.uniform(0.15, 0.35)) * duration_s
        length = float(rng.uniform(0.3, 0.5)) * duration_s
        ramp_s = 0.5
        inside = np.clip(
            np.minimum(t - start, start + length - t) / ramp_s, 0.0, 1.0
        )
        gate = 1.0 - inside

    columns = []
    for column in range(n_columns):
        if column < n_responsive:
            amplitude = float(rng.lognormal(0.0, 0.5))
            phase = float(rng.uniform(0, 2 * np.pi))
            breathing = amplitude * np.sin(
                2 * np.pi * frequency_hz * t + phase
            )
            breathing += harmonic_ratio * amplitude * np.sin(
                2 * np.pi * 2 * frequency_hz * t + 2 * phase
            )
            signal = gate * breathing
        else:
            signal = np.zeros(n)
        signal = signal + noise_scale * 0.3 * rng.standard_normal(n)
        columns.append(signal)
    matrix = np.stack(columns, axis=1)
    return matrix, rate_hz, frequency_hz * 60.0, apnea


def _rf_window(
    rng: np.random.Generator, index: int
) -> tuple[Any, float, float]:
    """One simulator-captured trace + (truth_bpm, apnea)."""
    frequency_hz = float(rng.uniform(*TRUTH_BREATHING_BAND_HZ))
    breathing: Any = SinusoidalBreathing(
        frequency_hz=frequency_hz,
        amplitude_m=float(rng.uniform(4.0e-3, 6.0e-3)),
        phase=float(rng.uniform(0, 2 * np.pi)),
    )
    duration_s = float(rng.uniform(0.7, 1.6) * WINDOW_DURATION_S)
    apnea = 0.0
    if rng.random() < APNEA_FRACTION:
        apnea = 1.0
        start = float(rng.uniform(0.2, 0.4)) * duration_s
        length = float(rng.uniform(0.3, 0.5)) * duration_s
        breathing = ApneicBreathing(
            base=breathing, pauses_s=((start, length),)
        )
    jitter = rng.uniform(-0.3, 0.3, size=3)
    person = Person(
        position=(2.2 + float(jitter[0]), 3.0 + float(jitter[1]), 1.0),
        breathing=breathing,
        heartbeat=None,
    )
    scenario_name = SCENARIOS[index % len(SCENARIOS)]
    seed = int(rng.integers(0, 2**31 - 1))
    if scenario_name == "through-wall":
        person = Person(
            position=(2.5 + float(jitter[0]), 0.8, 1.0),
            breathing=breathing,
            heartbeat=None,
        )
        # Sample the geometry the paper sweeps (Fig. 16): distance and
        # wall attenuation both drive SNR, and the corpus must cover the
        # low-SNR corner where the learned track is supposed to win.
        scene = through_wall_scenario(
            float(rng.uniform(3.0, 7.0)),
            persons=[person],
            wall_loss_db=float(rng.uniform(6.0, 11.0)),
            clutter_seed=seed,
        )
    else:
        scene = laboratory_scenario([person], clutter_seed=seed)
    trace = capture_trace(
        scene,
        duration_s=duration_s,
        sample_rate_hz=SAMPLE_RATE_HZ,
        seed=seed,
    )
    impairments: list[Any] = []
    loss = LOSS_FRACTIONS[index % len(LOSS_FRACTIONS)]
    if loss > 0:
        impairments.append(BernoulliLoss(loss_fraction=loss))
    # Mix in the hardware impairment families the heavy eval scenarios
    # apply, so the extractor's robustness features are trained in-domain.
    if rng.random() < 0.5:
        impairments.append(
            TimestampJitter(std_s=float(rng.uniform(1e-3, 10e-3)))
        )
    if rng.random() < 0.4:
        impairments.append(
            ImpulsiveCorruption(
                hit_fraction=float(rng.uniform(0.01, 0.06)),
                magnitude=float(rng.uniform(8.0, 15.0)),
            )
        )
    if rng.random() < 0.3:
        impairments.append(SubcarrierNulls(n_nulls=int(rng.integers(2, 9))))
    if impairments:
        trace = apply_impairments(trace, impairments, seed=seed + 1)
    return trace, frequency_hz * 60.0, apnea


def generate_corpus(
    config: TrainingConfig | None = None,
    *,
    instrumentation: Instrumentation | None = None,
) -> FeatureDataset:
    """Generate a featurized training corpus from the simulators.

    Args:
        config: Corpus parameters.
        instrumentation: Optional metrics sink (window counters).

    Returns:
        The featurized :class:`FeatureDataset`.
    """
    cfg = config if config is not None else TrainingConfig()
    obs = (
        instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    )
    rows: list[FloatArray] = []
    rates: list[float] = []
    labels: list[float] = []
    n_skipped = 0
    for index in range(cfg.n_windows):
        rng = np.random.default_rng((cfg.seed, index))
        try:
            if cfg.mode == "synthetic":
                matrix, rate_hz, truth_bpm, apnea = _synthetic_window(rng)
                vector = matrix_features(matrix, rate_hz)
            else:
                trace, truth_bpm, apnea = _rf_window(rng, index)
                vector = window_features(trace)
        except ReproError:
            # A window too degraded to featurize is a legitimate corpus
            # outcome under heavy loss settings — skip and count it.
            n_skipped += 1
            continue
        rows.append(vector)
        rates.append(truth_bpm)
        labels.append(apnea)
    if len(rows) < 8:
        raise EstimationError(
            f"corpus collapsed: only {len(rows)} of {cfg.n_windows} windows "
            "were featurizable"
        )
    obs.count(
        "learn_train_windows_total",
        amount=float(len(rows)),
        help_text="Featurized training windows accumulated.",
    )
    return FeatureDataset(
        features=np.stack(rows, axis=0),
        rates_bpm=np.asarray(rates, dtype=float),
        apnea_labels=np.asarray(labels, dtype=float),
        n_skipped=n_skipped,
    )


def corpus_from_store(
    root_dir: str,
    stems: tuple[str, ...] | None = None,
    *,
    instrumentation: Instrumentation | None = None,
) -> FeatureDataset:
    """Featurize recorded ``.cst`` stores into a training corpus.

    Each store is read once through :class:`repro.store.TraceReader`
    (salvage semantics included), calibrated once and sliced into
    :data:`WINDOW_DURATION_S` windows every :data:`STORE_HOP_S`.
    Ground-truth rates come from the recorded ``breathing_rates_bpm``
    trace metadata.

    Args:
        root_dir: Directory holding the ``.cst`` segments.
        stems: Store stems to read; all stems in the directory when
            omitted.
        instrumentation: Optional metrics sink.

    Returns:
        The featurized :class:`FeatureDataset` (apnea labels all zero —
        recorded stores carry no apnea ground truth).
    """
    from ..store.backend import DirectoryBackend
    from ..store.reader import TraceReader

    backend = DirectoryBackend(root_dir)
    if stems is None:
        # Segment files are named ``<stem>-<NNNNN>.cst``.
        found = sorted(
            {
                name[: -len(".cst")].rsplit("-", 1)[0]
                for name in backend.list_names()
                if name.endswith(".cst")
            }
        )
        stems = tuple(found)
    if not stems:
        raise ConfigurationError(f"no .cst stores found under {root_dir!r}")

    rows: list[FloatArray] = []
    rates: list[float] = []
    n_skipped = 0
    for stem in stems:
        reader = TraceReader(backend, stem, instrumentation=instrumentation)
        trace, _ = reader.read_trace()
        truth_bpm = float(trace.meta["breathing_rates_bpm"][0])
        matrix, quality, rate_hz = prepare_calibrated_matrix(trace)
        window_samples = int(round(WINDOW_DURATION_S * rate_hz))
        hop_samples = max(1, int(round(STORE_HOP_S * rate_hz)))
        n_samples = matrix.shape[0]
        starts = range(0, max(n_samples - window_samples, 0) + 1, hop_samples)
        if n_samples < window_samples:
            starts = range(0, 1)  # single truncated window
        for start in starts:
            piece = matrix[start : start + window_samples]
            try:
                vector = matrix_features(piece, rate_hz, quality=quality)
            except ReproError:
                n_skipped += 1
                continue
            rows.append(vector)
            rates.append(truth_bpm)
    if not rows:
        raise EstimationError(
            f"no featurizable windows in stores {list(stems)}"
        )
    return FeatureDataset(
        features=np.stack(rows, axis=0),
        rates_bpm=np.asarray(rates, dtype=float),
        apnea_labels=np.zeros(len(rows)),
        n_skipped=n_skipped,
    )


def _fit_bundle(
    corpus: FeatureDataset,
    *,
    seed: int,
    with_mlp: bool,
    meta: dict[str, Any],
) -> LearnedBundle:
    """Fit the model family on a corpus and assemble the bundle."""
    breathing_model = RidgeRegressor().fit(corpus.features, corpus.rates_bpm)
    residuals = np.abs(
        breathing_model.predict(corpus.features) - corpus.rates_bpm
    )
    breathing_mlp = None
    if with_mlp:
        breathing_mlp = TinyMLP(seed=seed).fit(corpus.features, corpus.rates_bpm)
    apnea_model = None
    labels = corpus.apnea_labels
    if labels.min() < 0.5 < labels.max():  # phaselint: disable=PL004 -- class-presence check on exact 0/1 labels
        apnea_model = LogisticClassifier().fit(corpus.features, labels)
    meta = dict(meta)
    meta.update(
        {
            "seed": seed,
            "n_windows": corpus.n_windows,
            "n_skipped": corpus.n_skipped,
            "train_mae_bpm": float(residuals.mean()),
            "has_apnea_head": apnea_model is not None,
        }
    )
    return LearnedBundle(
        feature_names=corpus.feature_names,
        breathing_model=breathing_model,
        breathing_mlp=breathing_mlp,
        apnea_model=apnea_model,
        meta=meta,
    )


def train(
    config: TrainingConfig | None = None,
    *,
    instrumentation: Instrumentation | None = None,
) -> LearnedBundle:
    """Train the learned estimator family from a simulator corpus.

    Args:
        config: Corpus + model parameters.
        instrumentation: Optional metrics sink; training duration lands in
            the ``learn_stage_duration_s`` histogram.

    Returns:
        The trained, serialization-ready :class:`LearnedBundle`.
    """
    cfg = config if config is not None else TrainingConfig()
    obs = (
        instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    )
    with obs.stage("train", component="learn"):
        corpus = generate_corpus(cfg, instrumentation=instrumentation)
        bundle = _fit_bundle(
            corpus,
            seed=cfg.seed,
            with_mlp=cfg.with_mlp,
            meta={
                "mode": cfg.mode,
                "scenarios": list(SCENARIOS),
                "loss_fractions": list(LOSS_FRACTIONS),
                "window_duration_s": WINDOW_DURATION_S,
            },
        )
    return bundle


def train_from_store(
    root_dir: str,
    stems: tuple[str, ...] | None = None,
    *,
    config: TrainingConfig | None = None,
    instrumentation: Instrumentation | None = None,
) -> LearnedBundle:
    """Train the rate head from recorded ``.cst`` stores.

    Args:
        root_dir: Directory holding the ``.cst`` segments.
        stems: Store stems to read; all stems when omitted.
        config: Model parameters (``mode`` and ``n_windows`` are unused).
        instrumentation: Optional metrics sink.

    Returns:
        The trained :class:`LearnedBundle` (no apnea head — stores carry
        no apnea ground truth).
    """
    cfg = config if config is not None else TrainingConfig()
    obs = (
        instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    )
    with obs.stage("train", component="learn"):
        corpus = corpus_from_store(
            root_dir, stems, instrumentation=instrumentation
        )
        if corpus.n_windows < 8:
            raise EstimationError(
                f"store corpus too small to fit: {corpus.n_windows} windows"
            )
        bundle = _fit_bundle(
            corpus,
            seed=cfg.seed,
            with_mlp=cfg.with_mlp,
            meta={"mode": "store", "stems": sorted(stems) if stems else "all"},
        )
    return bundle
