"""Run-twice determinism sanitizer: byte-verify that seeded runs replay.

Static analysis (phaselint PL008–PL011) proves the *absence of known
hazard shapes*; this module proves the *presence of the property itself*:
a seeded scenario, run twice in one process, must produce byte-identical
artifacts — event logs, metrics snapshots, estimate streams.  Anything
that survives the linter but still leaks state (an unordered iteration
the dataflow rules could not see, a module-level cache, a stray global
RNG draw) shows up here as the first divergent record.

The contract is deliberately brutal: artifacts are compared **line by
line, byte for byte**.  There is no tolerance, because the repo's other
reproducibility checks (fleet session isolation, checkpoint replay) are
built on the same equality and a "small" divergence is still a shared
channel.

Used three ways:

* ``repro sanitize --scenario source-crash`` from the CLI;
* the ``determinism``-marked tests in ``tests/test_sanitize.py``;
* the CI ``sanitize`` job, which runs one solo and one fleet scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.obs import MetricsRegistry, canonical_json

__all__ = [
    "Divergence",
    "SanitizeReport",
    "run_twice",
    "sanitize_chaos",
]

# How many artifact lines preceding a divergence are carried into the
# report — enough to see the trace/session context of the bad record.
_CONTEXT_LINES = 3

# A runner produces one run's artifacts: name -> full text.  It must
# build all of its state fresh on every call; anything cached between
# calls is exactly the nondeterminism this module exists to catch.
Runner = Callable[[], Mapping[str, str]]


@dataclass(frozen=True)
class Divergence:
    """The first point where two runs of one scenario disagree.

    Attributes:
        artifact: Name of the differing artifact (``events.jsonl``, …).
        line_no: 1-based first differing line; when one run's artifact is
            a strict prefix of the other's, the first line past the
            shorter one.
        first_run: That line in the first run (``""`` past its end).
        second_run: That line in the second run (``""`` past its end).
        context: Up to :data:`_CONTEXT_LINES` lines preceding the
            divergence (identical in both runs by construction) — the
            trace context of the divergent record.
    """

    artifact: str
    line_no: int
    first_run: str
    second_run: str
    context: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "artifact": self.artifact,
            "line_no": self.line_no,
            "first_run": self.first_run,
            "second_run": self.second_run,
            "context": list(self.context),
        }

    def format_text(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [f"{self.artifact}:{self.line_no}: runs diverge"]
        for ctx in self.context:
            lines.append(f"    = {ctx}")
        lines.append(f"    1> {self.first_run or '<end of artifact>'}")
        lines.append(f"    2> {self.second_run or '<end of artifact>'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of one run-twice comparison.

    Attributes:
        label: What was sanitized (``solo:source-crash``, …).
        artifacts: Artifact names that were compared, sorted.
        artifact_bytes_total: Combined size of the first run's artifacts.
        divergence: ``None`` when the runs were byte-identical.
    """

    label: str
    artifacts: tuple[str, ...]
    artifact_bytes_total: int
    divergence: Divergence | None = field(default=None)

    @property
    def clean(self) -> bool:
        """True when both runs produced byte-identical artifacts."""
        return self.divergence is None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "label": self.label,
            "artifacts": list(self.artifacts),
            "artifact_bytes_total": self.artifact_bytes_total,
            "clean": self.clean,
            "divergence": (
                None if self.divergence is None else self.divergence.to_dict()
            ),
        }

    def format_text(self) -> str:
        """Human-readable summary (one line when clean)."""
        if self.divergence is None:
            return (
                f"sanitize {self.label}: clean "
                f"({len(self.artifacts)} artifact(s), "
                f"{self.artifact_bytes_total} bytes byte-identical)"
            )
        return (
            f"sanitize {self.label}: DIVERGENT\n"
            + self.divergence.format_text()
        )


def _first_divergence(
    artifact: str, first_text: str, second_text: str
) -> Divergence | None:
    if first_text == second_text:
        return None
    first_lines = first_text.splitlines()
    second_lines = second_text.splitlines()
    limit = max(len(first_lines), len(second_lines))
    for i in range(limit):
        a = first_lines[i] if i < len(first_lines) else ""
        b = second_lines[i] if i < len(second_lines) else ""
        if a != b:
            start = max(0, i - _CONTEXT_LINES)
            return Divergence(
                artifact=artifact,
                line_no=i + 1,
                first_run=a,
                second_run=b,
                context=tuple(first_lines[start:i]),
            )
    # Same lines, different text: a trailing-newline / encoding drift.
    return Divergence(
        artifact=artifact,
        line_no=limit + 1,
        first_run="<artifacts differ only in trailing bytes>",
        second_run="<artifacts differ only in trailing bytes>",
    )


def run_twice(label: str, runner: Runner) -> SanitizeReport:
    """Execute ``runner`` twice and byte-compare every artifact.

    Args:
        label: Report label (``solo:source-crash``, ``fleet:…``).
        runner: Zero-argument callable producing one run's artifacts;
            called exactly twice, and responsible for building all of its
            state (registries, gateways, RNGs) fresh on each call.

    Returns:
        The comparison report; :attr:`SanitizeReport.clean` is True only
        if both calls produced identical artifact names *and* bytes.
    """
    first = dict(runner())
    second = dict(runner())
    names = sorted(set(first) | set(second))
    total_bytes = sum(len(first.get(n, "").encode("utf-8")) for n in names)
    for name in names:
        if name not in first or name not in second:
            missing_in = "first" if name not in first else "second"
            return SanitizeReport(
                label=label,
                artifacts=tuple(names),
                artifact_bytes_total=total_bytes,
                divergence=Divergence(
                    artifact=name,
                    line_no=1,
                    first_run=first.get(name, "<artifact missing>"),
                    second_run=second.get(name, "<artifact missing>"),
                    context=(f"artifact missing from {missing_in} run",),
                ),
            )
        divergence = _first_divergence(name, first[name], second[name])
        if divergence is not None:
            return SanitizeReport(
                label=label,
                artifacts=tuple(names),
                artifact_bytes_total=total_bytes,
                divergence=divergence,
            )
    return SanitizeReport(
        label=label,
        artifacts=tuple(names),
        artifact_bytes_total=total_bytes,
    )


def _estimate_lines(estimates: list[Any]) -> str:
    """Canonical JSONL encoding of a service-estimate stream."""
    return "\n".join(
        json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
        for e in estimates
    )


def sanitize_chaos(
    scenario: str = "source-crash",
    *,
    duration_s: float | None = None,
    sample_rate_hz: float | None = None,
    n_sessions: int = 12,
    seed: int = 0,
) -> SanitizeReport:
    """Byte-verify one chaos scenario across two seeded runs.

    A scenario with a fleet fault kind runs through
    :func:`repro.service.chaos.run_fleet_chaos`, any other through
    :func:`repro.service.chaos.run_chaos`.  The fleet driver's per-run
    solo-baseline isolation check is skipped — this sanitizer asks a
    different question (run-to-run stability, not solo-vs-fleet
    equivalence) and skipping it roughly halves the cost.

    Args:
        scenario: A shipped scenario name or a scenario JSON file.
        duration_s: Simulated capture duration per run (default: the
            driver's).
        sample_rate_hz: CSI sample rate of the simulated capture
            (default: the driver's).
        n_sessions: Fleet size per run of a fleet scenario.
        seed: Scenario seed used by *both* runs.

    Returns:
        The run-twice report.  A solo run compares the event log,
        estimate stream, final health summary, and metrics snapshot; a
        fleet run compares the fleet event log, metrics snapshot, and
        summary report.
    """
    from repro.service.chaos import load_scenario, run_chaos, run_fleet_chaos

    spec = load_scenario(scenario)
    run_kwargs: dict[str, Any] = {
        name: value
        for name, value in (
            ("duration_s", duration_s),
            ("sample_rate_hz", sample_rate_hz),
        )
        if value is not None
    }

    def solo_runner() -> dict[str, str]:
        registry = MetricsRegistry()
        report = run_chaos(spec, seed=seed, registry=registry, **run_kwargs)
        return {
            "events.jsonl": report.events.to_jsonl(),
            "estimates.jsonl": _estimate_lines(report.estimates),
            "health.json": json.dumps(report.health, sort_keys=True),
            "metrics.json": canonical_json(registry.snapshot()),
        }

    def fleet_runner() -> dict[str, str]:
        report = run_fleet_chaos(
            spec,
            n_sessions=n_sessions,
            seed=seed,
            registry=MetricsRegistry(),
            check_isolation=False,
            **run_kwargs,
        )
        return {
            "events.jsonl": report.events_jsonl,
            "metrics.json": report.metrics_json or "",
            "report.json": json.dumps(report.to_jsonable(), sort_keys=True),
        }

    if spec.is_fleet:
        return run_twice(f"fleet:{spec.name}", fleet_runner)
    return run_twice(f"solo:{spec.name}", solo_runner)
