"""PL010 — shared mutable state reachable from the service/fleet paths.

The fleet gateway multiplexes up to a thousand sessions through one
process.  Session isolation (the ``check_isolation`` byte-compare in
`repro.service.chaos.run_fleet_chaos`) only holds if no state is shared between
them — a module-level cache, a class-body ``dict``, or any mutable
container bound outside an instance is a channel through which session A
can change what session B computes.

Pass 1 records every module- and class-level mutable binding; this rule
flags the ones living in modules *reachable from the configured service
roots* (``shared-state-roots`` in ``[tool.phaselint]``; empty means the
whole project), following intra-project import edges — a cache in
``repro.dsp`` is just as reachable from a fleet session as one in the
gateway itself.

Exemptions keep the signal honest:

* constant-convention names (``ALL_CAPS``) — read-only lookup tables by
  convention; mutating one is a review problem, not a dataflow one;
* dataclass field specs and Enum members (already excluded in pass 1);
* ``__all__`` (excluded in pass 1).

Fixes: move the state onto the instance that owns it, freeze it
(``tuple`` / ``frozenset`` / ``MappingProxyType``), or — for genuinely
process-wide registries written once at import time — justify it::

    _REGISTRY: dict[str, Handler] = {}  # phaselint: justify=PL010 -- populated only by import-time decorators
"""

from __future__ import annotations

from typing import Iterator

from ..config import LintConfig
from ..findings import Finding
from ..project import ProjectIndex
from .base import ProjectRule

__all__ = ["SharedStateRule"]

_MODULE_MSG = (
    "module-level mutable {kind} '{name}' in {module} is shared across "
    "all sessions reaching this module; move it onto the owning instance, "
    "freeze it, or justify with "
    "'# phaselint: justify=PL010 -- <why sharing is safe>'"
)
_CLASS_MSG = (
    "class-level mutable {kind} '{cls}.{name}' in {module} is shared by "
    "every instance; initialize it per-instance in __init__ or justify "
    "with '# phaselint: justify=PL010 -- <why sharing is safe>'"
)


def _is_constant_name(name: str) -> bool:
    """Constant by convention: ``ALL_CAPS`` (leading underscore allowed)."""
    bare = name.lstrip("_")
    return bool(bare) and bare == bare.upper()


class SharedStateRule(ProjectRule):
    """Flag mutable module/class state on service-reachable paths."""

    code = "PL010"
    name = "no-shared-mutable-state"
    description = (
        "mutable module/class-level bindings reachable from the service "
        "roots are cross-session channels; own them per instance, freeze "
        "them, or justify the sharing"
    )

    def check_project(
        self, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        """Yield findings for every shared binding in reachable modules."""
        reachable = index.reachable_modules(config.shared_state_roots)
        for name in sorted(reachable):
            info = index.modules.get(name)
            if info is None:
                continue
            for binding in sorted(info.module_mutables):
                if _is_constant_name(binding):
                    continue
                node, kind = info.module_mutables[binding]
                yield self.finding(
                    info,
                    node,
                    _MODULE_MSG.format(
                        kind=kind, name=binding, module=info.name
                    ),
                )
            for cls, attr, node, kind in info.class_mutables:
                if _is_constant_name(attr):
                    continue
                yield self.finding(
                    info,
                    node,
                    _CLASS_MSG.format(
                        kind=kind, cls=cls, name=attr, module=info.name
                    ),
                )
