"""Configuration for phaselint, loaded from ``[tool.phaselint]``.

All behaviour that is a judgement call — which trees a rule patrols, which
entry points may touch the wall clock, which unit suffixes count as
self-documenting — lives here rather than in the rules, so projects can
tune the gate without forking the linter.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["LintConfig", "load_config", "DEFAULT_EXCLUDE"]

# Generated/vendored trees no rule should ever patrol.
DEFAULT_EXCLUDE = [
    "*.egg-info/*",
    "*/__pycache__/*",
    "*/.git/*",
    "*/build/*",
]


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter settings.

    Attributes:
        exclude: fnmatch patterns (posix paths) removed from discovery.
        rule_paths: Per-rule path prefixes; a rule listed here only runs on
            files under one of its prefixes.  Rules not listed run on every
            linted file.  This is how API-shape rules (PL002/PL003/PL006)
            stay scoped to ``src`` while the hygiene rule PL001 patrols
            tests and benchmarks too.
        allow_unseeded: fnmatch patterns naming the entry points where
            PL001 permits wall-clock time and unseeded generators (CLIs,
            latency benchmarks).
        wall_clock_shims: fnmatch patterns naming the *only* files allowed
            to import the ``time`` module inside ``wall_clock_scope``
            (the sanctioned clock shims).
        wall_clock_scope: Path prefixes (same matching as ``rule_paths``)
            where PL001 bans the ``time`` module outright — every clock
            read there must flow through an injected Clock from a shim
            file.  Empty scope disables the ban.
        unit_tokens: Parameter-name stems PL003 considers unit-ambiguous.
        unit_suffixes: Suffixes PL003 accepts as carrying a unit (matched
            against the final ``_``-separated token of the name).
        shared_state_roots: Dotted module prefixes whose import closure
            PL010 patrols for shared mutable state (the multi-session
            service surface).  Empty means every linted module is in
            scope — the strict default.
        select: When non-empty, only these rule codes run.
    """

    exclude: tuple[str, ...] = tuple(DEFAULT_EXCLUDE)
    rule_paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    allow_unseeded: tuple[str, ...] = ()
    wall_clock_shims: tuple[str, ...] = ()
    wall_clock_scope: tuple[str, ...] = ()
    unit_tokens: tuple[str, ...] = (
        "rate",
        "freq",
        "frequency",
        "period",
        "duration",
        "interval",
        "delay",
        "latency",
        "bandwidth",
        "spacing",
    )
    unit_suffixes: tuple[str, ...] = (
        "hz",
        "khz",
        "mhz",
        "ghz",
        "bpm",
        "s",
        "ms",
        "us",
        "ns",
        "min",
        "m",
        "cm",
        "mm",
        "db",
        "dbm",
        "samples",
        "packets",
        "bins",
        "fraction",
        "ratio",
        "norm",
        "level",
        "total",
        "count",
    )
    shared_state_roots: tuple[str, ...] = ()
    select: tuple[str, ...] = ()

    def is_excluded(self, posix_path: str) -> bool:
        """True when ``posix_path`` matches an exclude pattern."""
        return any(fnmatch.fnmatch(posix_path, pat) for pat in self.exclude)

    def rule_applies(self, code: str, posix_path: str) -> bool:
        """True when rule ``code`` should run on ``posix_path``."""
        if self.select and code not in self.select:
            return False
        prefixes = self.rule_paths.get(code)
        if prefixes is None:
            return True
        return any(
            posix_path == p or posix_path.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    def unseeded_allowed(self, posix_path: str) -> bool:
        """True when PL001 gives ``posix_path`` an entry-point exemption."""
        return any(fnmatch.fnmatch(posix_path, pat) for pat in self.allow_unseeded)

    def is_wall_clock_shim(self, posix_path: str) -> bool:
        """True when ``posix_path`` is a sanctioned clock-shim file."""
        return any(
            fnmatch.fnmatch(posix_path, pat) for pat in self.wall_clock_shims
        )

    def wall_clock_banned(self, posix_path: str) -> bool:
        """True when PL001 must ban the ``time`` module in ``posix_path``.

        The ban applies inside ``wall_clock_scope`` to every file that is
        not itself a ``wall_clock_shims`` match; an empty scope disables
        it entirely.
        """
        in_scope = any(
            posix_path == p or posix_path.startswith(p.rstrip("/") + "/")
            for p in self.wall_clock_scope
        )
        return in_scope and not self.is_wall_clock_shim(posix_path)


def load_config(root: Path | None = None) -> LintConfig:
    """Load ``[tool.phaselint]`` from ``pyproject.toml`` under ``root``.

    Args:
        root: Directory whose ``pyproject.toml`` is consulted; defaults to
            the current working directory.  Missing file or table yields
            the built-in defaults.

    Returns:
        The resolved :class:`LintConfig`.
    """
    root = Path.cwd() if root is None else Path(root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("phaselint", {})
    if not table:
        return LintConfig()
    defaults = LintConfig()
    rule_paths = {
        str(code): tuple(str(p) for p in paths)
        for code, paths in table.get("rule-paths", {}).items()
    }
    return LintConfig(
        exclude=tuple(table.get("exclude", list(defaults.exclude))),
        rule_paths=rule_paths,
        allow_unseeded=tuple(table.get("allow-unseeded", [])),
        wall_clock_shims=tuple(table.get("wall-clock-shims", [])),
        wall_clock_scope=tuple(table.get("wall-clock-scope", [])),
        unit_tokens=tuple(table.get("unit-tokens", list(defaults.unit_tokens))),
        unit_suffixes=tuple(
            table.get("unit-suffixes", list(defaults.unit_suffixes))
        ),
        shared_state_roots=tuple(table.get("shared-state-roots", [])),
        select=tuple(table.get("select", [])),
    )
