"""Procedure COMPOSE — the public entry point of the composition algorithm.

``compose`` takes a :class:`~repro.mapping.composition_problem.CompositionProblem`
(or two mappings) and tries to eliminate every σ2 symbol from Σ12 ∪ Σ23,
one at a time.  The algorithm is best-effort: symbols that cannot be
eliminated simply survive into the output, which is then a constraint set
over σ1 ∪ σ2' ∪ σ3 for some σ2' ⊆ σ2 (paper Section 3.1).

``compose`` is the one driver for both elimination orders:
``config.elimination_order`` only selects the plan it runs (see
:mod:`repro.compose.planner`).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.algebra.interning import ExpressionCache, shared_expression_cache
from repro.algebra.simplify import simplify_constraint_set
from repro.compose.config import ComposerConfig
from repro.compose.phases import collect_phases, timed
from repro.compose.planner import build_plan, compose_component, fixed_plan, merge_outputs
from repro.compose.result import CompositionResult, EliminationMethod, EliminationOutcome
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping

__all__ = ["compose", "compose_mappings"]


def compose(
    problem: CompositionProblem,
    config: Optional[ComposerConfig] = None,
    cache: Optional[ExpressionCache] = None,
) -> CompositionResult:
    """Run COMPOSE on a composition problem and return the detailed result.

    ``cache`` activates an :class:`ExpressionCache` for the duration of this
    composition (restoring the previous activation afterwards), so repeated
    standalone calls can share one cache without going through the batch
    engine.  When omitted, whatever cache is already active is used.

    The fixed order (the default) runs one component holding the whole
    problem, once, in the configured symbol order.  With
    ``config.elimination_order == "cost"`` the independent components of the
    symbol co-occurrence graph are composed separately, cheapest eliminations
    first, with failed symbols retried; the result records that plan.
    """
    if cache is not None:
        with shared_expression_cache(cache):
            return compose(problem, config)
    config = config or ComposerConfig()
    started = time.perf_counter()

    constraints = problem.all_constraints
    input_operator_count = constraints.operator_count()
    sigma2 = problem.sigma2
    cost_guided = config.elimination_order == "cost"

    with collect_phases() as phase_buckets:
        if cost_guided:
            with timed("planner"):
                plan = build_plan(constraints, sigma2.names())
                inputs = [constraints.subset(c.constraint_indices) for c in plan.components]
        else:
            plan = fixed_plan(constraints, sigma2, config.symbol_order)
            inputs = [constraints]

        results = [
            compose_component(
                component_constraints,
                component.symbols,
                tuple(sigma2.arity_of(symbol) for symbol in component.symbols),
                config,
            )
            for component, component_constraints in zip(plan.components, inputs)
        ]
        output = merge_outputs(constraints, plan, results)
        if config.simplify_output:
            with timed("simplify"):
                output = simplify_constraint_set(output, config.registry)

    # The cost-guided plan drops unmentioned symbols without an attempt.
    outcome_by_symbol: Dict[str, EliminationOutcome] = {
        symbol: EliminationOutcome(symbol, True, EliminationMethod.NOT_MENTIONED)
        for symbol in plan.free_symbols
    }
    outcome_by_symbol.update((o.symbol, o) for result in results for o in result.outcomes)
    # Cost order reports outcomes in signature order, fixed order in the
    # order the symbols were attempted.
    reported = sigma2.names() if cost_guided else plan.components[0].symbols
    outcomes = tuple(outcome_by_symbol[symbol] for symbol in reported)
    eliminated = [outcome.symbol for outcome in outcomes if outcome.success]
    residual = sigma2.removing(*eliminated) if eliminated else sigma2

    return CompositionResult(
        sigma1=problem.sigma1,
        sigma3=problem.sigma3,
        residual_sigma2=residual,
        constraints=output,
        outcomes=outcomes,
        elapsed_seconds=time.perf_counter() - started,
        input_operator_count=input_operator_count,
        output_operator_count=output.operator_count(),
        phase_seconds=tuple(sorted(phase_buckets.items())),
        plan=tuple(result.order for result in results) if cost_guided else (),
        components=len(plan.components) if cost_guided else 0,
        reorderings=sum(result.reorderings for result in results),
    )


def compose_mappings(
    m12: Mapping, m23: Mapping, config: Optional[ComposerConfig] = None
) -> CompositionResult:
    """Compose two mappings ``m12 : σ1→σ2`` and ``m23 : σ2→σ3``.

    Convenience wrapper that builds the :class:`CompositionProblem` and runs
    :func:`compose` on it.
    """
    problem = CompositionProblem.from_mappings(m12, m23)
    return compose(problem, config)
