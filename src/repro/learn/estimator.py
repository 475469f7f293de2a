"""The learned serving rung: a trained bundle behind the estimator protocol.

:class:`LearnedEstimator` exposes the same
``estimate_breathing_bpm(trace) -> float`` surface as the classical
fallback estimators (:class:`~repro.extensions.csi_ratio.CsiRatioEstimator`,
:class:`~repro.baselines.amplitude.AmplitudeMethod`), so the
:class:`~repro.service.MonitorSupervisor` can slot it into the fallback
ladder and the eval harness can run it head-to-head against the classical
chain.  Windows the feature extractor refuses (too short, too degraded)
raise :class:`~repro.errors.EstimationError`, which the supervisor treats
as "no estimate" — the rung degrades to the held-over phase-difference
value instead of guessing.

Inference is instrumented (``learn_stage_duration_s`` via the shared
stage timer, ``learn_inferences_total``) and features for a given window
are computed once even when both the rate and apnea heads are queried,
via a small keyed cache (``learn_feature_cache_hits_count``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..contracts import FloatArray
from ..core.breathing import BREATHING_SEARCH_BAND_HZ
from ..errors import EstimationError, ReproError
from ..io_.trace import CSITrace
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from .features import window_features
from .persist import LearnedBundle

__all__ = ["LearnedEstimator"]

_FEATURE_CACHE_ENTRIES = 8


class LearnedEstimator:
    """Serve a trained :class:`~repro.learn.persist.LearnedBundle`.

    Args:
        bundle: The trained model family.
        use_mlp: Serve the MLP rate head instead of the ridge head.
        instrumentation: Optional :class:`repro.obs.Instrumentation`;
            inference timings and cache counters land there.
    """

    method = "learned"

    def __init__(
        self,
        bundle: LearnedBundle,
        *,
        use_mlp: bool = False,
        instrumentation: Instrumentation | None = None,
    ):
        bundle.check_catalogue()
        self.bundle = bundle
        self.use_mlp = bool(use_mlp)
        self._obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        # Tiny per-instance feature cache: the supervisor may query both
        # the rate and apnea heads on the same window, and re-featurizing
        # is the expensive half of inference.  Keyed by cheap window
        # identity (shape + end timestamps), bounded, instance-owned (no
        # module state — PL010).
        self._feature_cache: OrderedDict[
            tuple[int, int, int, float, float], FloatArray
        ] = OrderedDict()

    def _cache_key(
        self, trace: CSITrace
    ) -> tuple[int, int, int, float, float]:
        return (
            int(trace.n_packets),
            int(trace.n_rx),
            int(trace.n_subcarriers),
            float(trace.timestamps_s[0]),
            float(trace.timestamps_s[-1]),
        )

    def _features(self, trace: CSITrace) -> FloatArray:
        key = self._cache_key(trace)
        cached = self._feature_cache.get(key)
        if cached is not None:
            self._feature_cache.move_to_end(key)
            self._obs.count(
                "learn_feature_cache_hits_count",
                help_text="Window feature vectors served from the cache.",
            )
            return cached
        self._obs.count(
            "learn_feature_cache_misses_count",
            help_text="Window feature vectors computed fresh.",
        )
        vector = window_features(trace)
        self._feature_cache[key] = vector
        while len(self._feature_cache) > _FEATURE_CACHE_ENTRIES:
            self._feature_cache.popitem(last=False)
        return vector

    def estimate_breathing_bpm(self, trace: CSITrace) -> float:
        """Breathing-rate estimate for one window.

        Args:
            trace: The CSI window (typically
                :meth:`StreamingMonitor.window_trace` output).

        Returns:
            The estimated rate in bpm, clamped to the physiologically
            plausible band the features were built over.

        Raises:
            EstimationError: When the window is too short or degraded for
                the feature extractor (the serving ladder degrades).
        """
        with self._obs.stage("infer", component="learn"):
            try:
                vector = self._features(trace)
            except EstimationError:
                raise
            except ReproError as exc:
                # Contract violations and other pipeline refusals surface
                # as "no estimate" so the serving rung degrades cleanly.
                raise EstimationError(
                    f"learned featurization failed: {exc}"
                ) from exc
            rate_bpm = self.bundle.predict_rate_bpm(
                vector, use_mlp=self.use_mlp
            )
            lo_hz, hi_hz = BREATHING_SEARCH_BAND_HZ
            rate_bpm = float(np.clip(rate_bpm, lo_hz * 60.0, hi_hz * 60.0))
        self._obs.count(
            "learn_inferences_total",
            labels={"head": "rate"},
            help_text="Learned-estimator inferences served.",
        )
        return rate_bpm

    def apnea_probability(self, trace: CSITrace) -> float:
        """Probability the window contains an apneic pause.

        Args:
            trace: The CSI window.

        Returns:
            Probability in ``[0, 1]``.

        Raises:
            EstimationError: When the window cannot be featurized.
            ConfigurationError: When the bundle has no apnea head.
        """
        with self._obs.stage("infer", component="learn"):
            try:
                vector = self._features(trace)
            except EstimationError:
                raise
            except ReproError as exc:
                raise EstimationError(
                    f"learned featurization failed: {exc}"
                ) from exc
            probability = self.bundle.apnea_probability(vector)
        self._obs.count(
            "learn_inferences_total",
            labels={"head": "apnea"},
            help_text="Learned-estimator inferences served.",
        )
        return probability
