"""Rule registry: one instance of every shipped rule, in code order.

Two registries, matching the two engine passes: ``ALL_RULES`` holds the
per-file rules (each judged from one module's AST), ``PROJECT_RULES``
holds the cross-module rules that run over the pass-1
:class:`~phaselint.project.ProjectIndex`.
"""

from .base import ProjectRule, Rule, RuleContext
from .pl001_randomness import UnseededRandomnessRule
from .pl002_ndarray import BareNdarrayRule
from .pl003_units import UnitSuffixRule
from .pl004_floateq import FloatEqualityRule
from .pl006_public_api import PublicApiRule
from .pl007_exceptions import BroadExceptRule
from .pl008_unordered_iteration import UnorderedIterationRule
from .pl009_rng_flow import RngFlowRule
from .pl010_shared_state import SharedStateRule
from .pl011_float_reduction import FloatReductionRule

ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomnessRule(),
    BareNdarrayRule(),
    UnitSuffixRule(),
    FloatEqualityRule(),
    PublicApiRule(),
    BroadExceptRule(),
)

PROJECT_RULES: tuple[ProjectRule, ...] = (
    UnorderedIterationRule(),
    RngFlowRule(),
    SharedStateRule(),
    FloatReductionRule(),
)

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "Rule",
    "RuleContext",
    "ProjectRule",
    "UnseededRandomnessRule",
    "BareNdarrayRule",
    "UnitSuffixRule",
    "FloatEqualityRule",
    "PublicApiRule",
    "BroadExceptRule",
    "UnorderedIterationRule",
    "RngFlowRule",
    "SharedStateRule",
    "FloatReductionRule",
]
