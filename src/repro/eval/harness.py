"""Trial runner: repeat scenario → capture → estimate → error.

Every figure of the evaluation section boils down to a loop over randomized
trials (different subjects, clutter realizations, hardware seeds) of some
scenario family, collecting per-trial estimation errors.  The harness owns
that loop; :mod:`repro.eval.experiments` parameterizes it per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..baselines.amplitude import AmplitudeMethod
from ..core.pipeline import PhaseBeat
from ..contracts import FloatArray
from ..errors import EstimationError, NotStationaryError, ReproError
from ..io_.trace import CSITrace
from ..physio.breathing import SinusoidalBreathing
from ..physio.heartbeat import SinusoidalHeartbeat
from ..physio.person import Person
from ..rf.impairments import Impairment, apply_impairments
from ..rf.receiver import capture_trace
from ..rf.scene import Scenario
from .metrics import absolute_error_bpm, accuracy

__all__ = ["TrialOutcome", "run_breathing_trials", "default_subject"]


@dataclass(frozen=True)
class TrialOutcome:
    """The result of one trial under one method.

    Attributes:
        method: Estimator label.
        truth_bpm: Ground-truth rate.
        estimate_bpm: Estimated rate, ``nan`` when estimation failed.
        error_bpm: |estimate − truth| (``nan`` on failure).
        accuracy: The paper's accuracy metric (0 on failure).
        failed: Whether the estimator raised.
    """

    method: str
    truth_bpm: float
    estimate_bpm: float
    error_bpm: float
    accuracy: float
    failed: bool = False


@dataclass
class BreathingTrialResults:
    """Collected outcomes of a trial batch, grouped by method."""

    outcomes: dict[str, list[TrialOutcome]] = field(default_factory=dict)

    def errors(self, method: str, *, drop_failures: bool = True) -> FloatArray:
        """Per-trial errors for a method (failures dropped or kept as nan)."""
        rows = self.outcomes.get(method, [])
        values = [
            o.error_bpm for o in rows if not (drop_failures and o.failed)
        ]
        return np.asarray(values, dtype=float)

    def accuracies(self, method: str) -> FloatArray:
        """Per-trial paper-accuracy values (failures score 0)."""
        rows = self.outcomes.get(method, [])
        return np.asarray([o.accuracy for o in rows], dtype=float)

    def failure_rate(self, method: str) -> float:
        """Fraction of trials where the method raised."""
        rows = self.outcomes.get(method, [])
        if not rows:
            return 0.0
        return float(np.mean([o.failed for o in rows]))

    def add(self, outcome: TrialOutcome) -> None:
        """Record one outcome."""
        self.outcomes.setdefault(outcome.method, []).append(outcome)


def default_subject(
    rng: np.random.Generator,
    position: tuple[float, float, float] = (2.2, 3.0, 1.0),
    *,
    with_heartbeat: bool = True,
    breathing_band_hz: tuple[float, float] = (0.18, 0.42),
    heart_band_hz: tuple[float, float] = (0.9, 1.8),
    breathing_amplitude_range_m: tuple[float, float] = (4.0e-3, 6.0e-3),
) -> Person:
    """A randomized single subject for repeated trials.

    Breathing rate uniform in ``breathing_band_hz`` (default ≈ 11–25 bpm),
    heart rate in ``heart_band_hz`` (default 54–108 bpm), small position
    scatter.  Heart-rate experiments restrict breathing to the resting
    0.18–0.30 Hz range and to quiet-breathing chest amplitudes (2.5–3.5 mm)
    — the paper's subjects sat still for these runs.  Slow quiet breathing
    keeps the second harmonic below the 0.8 Hz heart search band and the
    chest modulation index in the regime where the heart carrier exceeds
    its mixing sidebands.
    """
    jitter = rng.uniform(-0.3, 0.3, size=3)
    jitter[2] = 0.0
    pos = tuple(float(v) for v in np.asarray(position) + jitter)
    return Person(
        position=pos,
        breathing=SinusoidalBreathing(
            frequency_hz=float(rng.uniform(*breathing_band_hz)),
            amplitude_m=float(rng.uniform(*breathing_amplitude_range_m)),
            phase=float(rng.uniform(0, 2 * np.pi)),
        ),
        heartbeat=SinusoidalHeartbeat(
            frequency_hz=float(rng.uniform(*heart_band_hz)),
            phase=float(rng.uniform(0, 2 * np.pi)),
        )
        if with_heartbeat
        else None,
    )


def run_breathing_trials(
    scenario_factory: Callable[[int, np.random.Generator], Scenario],
    n_trials: int,
    *,
    duration_s: float = 30.0,
    sample_rate_hz: float = 400.0,
    methods: tuple[str, ...] = ("phasebeat",),
    enforce_stationarity: bool = False,
    base_seed: int = 0,
    learned: Any | None = None,
    impairments_factory: (
        Callable[[int, np.random.Generator], list[Impairment]] | None
    ) = None,
) -> BreathingTrialResults:
    """Run a batch of single-person breathing trials.

    Args:
        scenario_factory: Maps ``(trial index, rng)`` to a fully-populated
            scenario (one person; its breathing model is the ground truth).
        n_trials: Number of trials.
        duration_s: Capture length per trial.
        sample_rate_hz: Packet rate.
        methods: Any of ``"phasebeat"``, ``"amplitude"``, ``"rss"``,
            ``"learned"`` (the last needs ``learned``).
        enforce_stationarity: Passed to :class:`PhaseBeat`; off by
            default because the harness controls the scene.
        base_seed: Base RNG seed; trial k uses ``base_seed + k``.
        learned: A trained estimator (typically
            :class:`~repro.learn.LearnedEstimator`) backing the
            ``"learned"`` method; every method in a trial sees the same
            trace, so classical/learned comparisons are paired.
        impairments_factory: Optional ``(trial index, rng) -> impairments``
            hook; when given, each trial's capture is degraded through
            :func:`repro.rf.impairments.apply_impairments` before any
            method sees it (heavy-impairment head-to-heads).

    Returns:
        :class:`BreathingTrialResults` keyed by method label.
    """
    if n_trials < 1:
        raise ReproError(f"n_trials must be >= 1, got {n_trials}")
    if "learned" in methods and learned is None:
        raise ReproError(
            "methods includes 'learned' but no learned estimator was given"
        )
    pipeline = PhaseBeat(enforce_stationarity=enforce_stationarity)
    amplitude = AmplitudeMethod()
    results = BreathingTrialResults()

    for k in range(n_trials):
        seed = base_seed + k
        rng = np.random.default_rng(seed)
        scenario = scenario_factory(k, rng)
        truth = scenario.persons[0].breathing_rate_bpm
        trace = capture_trace(
            scenario,
            duration_s=duration_s,
            sample_rate_hz=sample_rate_hz,
            seed=seed,
        )
        if impairments_factory is not None:
            impairments = impairments_factory(k, rng)
            if impairments:
                trace = apply_impairments(trace, impairments, seed=seed + 1)
        for method in methods:
            results.add(
                _run_method(
                    method, pipeline, amplitude, trace, truth,
                    learned=learned,
                )
            )
    return results


def _run_method(
    method: str,
    pipeline: PhaseBeat,
    amplitude: AmplitudeMethod,
    trace: CSITrace,
    truth: float,
    *,
    learned: Any | None = None,
) -> TrialOutcome:
    try:
        if method == "phasebeat":
            result = pipeline.process(trace, estimate_heart=False)
            estimate = result.breathing_rates_bpm[0]
        elif method == "amplitude":
            estimate = amplitude.estimate_breathing_bpm(trace)
        elif method == "rss":
            from ..baselines.rss import rss_breathing_bpm

            estimate = rss_breathing_bpm(trace)
        elif method == "learned":
            assert learned is not None  # validated by run_breathing_trials
            estimate = learned.estimate_breathing_bpm(trace)
        else:
            raise ReproError(f"unknown method {method!r}")
    except (EstimationError, NotStationaryError):
        return TrialOutcome(
            method=method,
            truth_bpm=truth,
            estimate_bpm=float("nan"),
            error_bpm=float("nan"),
            accuracy=0.0,
            failed=True,
        )
    return TrialOutcome(
        method=method,
        truth_bpm=truth,
        estimate_bpm=float(estimate),
        error_bpm=absolute_error_bpm(estimate, truth),
        accuracy=accuracy(estimate, truth),
    )
