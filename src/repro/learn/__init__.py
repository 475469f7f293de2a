"""Learned estimator track: features, tiny numpy models, training, serving.

A second estimator *family* alongside the classical phase-difference + DWT
chain (PulseFi / ComplexBeat direction, see PAPERS.md).  The track is
deliberately dependency-free: features come from the repo's own batched
DSP kernels, the models are from-scratch numpy (ridge regression for rate,
logistic regression for apnea, a tiny MLP), and every stage is seeded so a
trained artifact is byte-reproducible.

Layout:

* :mod:`repro.learn.features` — deterministic per-window feature vectors
  from calibrated subcarrier matrices;
* :mod:`repro.learn.models` — the from-scratch estimators;
* :mod:`repro.learn.persist` — canonical-JSON model bundles;
* :mod:`repro.learn.train` — corpus generation (simulator or recorded
  ``.cst`` stores) and the training entry point;
* :mod:`repro.learn.estimator` — the :class:`LearnedEstimator` rung served
  by :class:`repro.service.MonitorSupervisor` and the eval harness.
"""

from .estimator import LearnedEstimator
from .features import FEATURE_NAMES, matrix_features, window_features
from .models import LogisticClassifier, RidgeRegressor, TinyMLP
from .persist import (
    MODEL_SCHEMA_VERSION,
    LearnedBundle,
    dump_bundle,
    load_bundle,
    read_bundle,
    save_bundle,
)
from .train import (
    FeatureDataset,
    TrainingConfig,
    corpus_from_store,
    generate_corpus,
    train,
    train_from_store,
)

__all__ = [
    "FEATURE_NAMES",
    "matrix_features",
    "window_features",
    "RidgeRegressor",
    "LogisticClassifier",
    "TinyMLP",
    "MODEL_SCHEMA_VERSION",
    "LearnedBundle",
    "dump_bundle",
    "load_bundle",
    "save_bundle",
    "read_bundle",
    "FeatureDataset",
    "TrainingConfig",
    "generate_corpus",
    "corpus_from_store",
    "train",
    "train_from_store",
    "LearnedEstimator",
]
