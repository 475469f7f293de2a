"""phaselint — domain-aware static analysis for the PhaseBeat reproduction.

An AST-based linter that encodes the array-pipeline invariants the Python
type system cannot see.  It runs in two passes: per-file rules
(``PL001`` … ``PL007``) judge one module at a time — seeded randomness,
``NDArray`` typing in public signatures, unit-suffixed frequency/rate
names, no float equality, a fully annotated +
documented public API, no blind exception handlers — and cross-module
determinism rules (``PL008`` … ``PL011``) run dataflow over a project
symbol table and call graph: unordered iteration feeding ordered sinks,
RNG streams escaping their scope, shared mutable state on the service
paths, and float reductions with unpinned order.

Run it from the repository root::

    PYTHONPATH=tools python -m phaselint src tests benchmarks

Every finding carries a rule code; silence one in place with
``# phaselint: disable=PL001`` on the offending line, file-wide with
``# phaselint: disable-file=PL001``, or — for the determinism rules —
with an audited justification: ``# phaselint: insertion-order -- <why>``
or ``# phaselint: justify=PL010 -- <why>``.  Accepted historical findings
live in a committed ``phaselint-baseline.json`` (see ``--update-baseline``);
defaults live in ``[tool.phaselint]`` of ``pyproject.toml``.
"""

from .baseline import Baseline
from .config import LintConfig, load_config
from .engine import lint_file, lint_paths, lint_paths_detailed
from .findings import Finding
from .project import ProjectIndex
from .rules import ALL_RULES, PROJECT_RULES, ProjectRule, Rule

__version__ = "1.1.0"

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "Baseline",
    "Finding",
    "LintConfig",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_paths_detailed",
    "load_config",
    "__version__",
]
