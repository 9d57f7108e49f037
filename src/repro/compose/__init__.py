"""The mapping-composition algorithm: ELIMINATE, COMPOSE and their sub-steps."""

from repro.compose.config import ComposerConfig
from repro.compose.composer import compose, compose_mappings
from repro.compose.eliminate import eliminate
from repro.compose.planner import (
    ComponentResult,
    CompositionPlan,
    PlannedComponent,
    build_plan,
    compose_component,
    order_symbols,
    symbol_cost,
)
from repro.compose.result import CompositionResult, EliminationMethod, EliminationOutcome
from repro.compose.view_unfolding import unfold_view
from repro.compose.left_compose import left_compose
from repro.compose.right_compose import right_compose
from repro.compose.left_normalize import left_normalize
from repro.compose.right_normalize import right_normalize
from repro.compose.deskolemize import deskolemize
from repro.compose.domain_elimination import eliminate_domain
from repro.compose.empty_elimination import eliminate_empty
from repro.compose.normalize_context import NormalizationContext, SkolemNamer

__all__ = [
    "ComposerConfig",
    "compose",
    "compose_mappings",
    "eliminate",
    "ComponentResult",
    "CompositionPlan",
    "PlannedComponent",
    "build_plan",
    "compose_component",
    "order_symbols",
    "symbol_cost",
    "CompositionResult",
    "EliminationMethod",
    "EliminationOutcome",
    "unfold_view",
    "left_compose",
    "right_compose",
    "left_normalize",
    "right_normalize",
    "deskolemize",
    "eliminate_domain",
    "eliminate_empty",
    "NormalizationContext",
    "SkolemNamer",
]
