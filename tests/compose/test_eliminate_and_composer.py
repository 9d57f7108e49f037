"""Tests for ELIMINATE, COMPOSE, the configuration knobs and the result objects."""

import pytest

from repro.algebra.expressions import Projection, Relation, Selection, Union
from repro.algebra.conditions import equals_const
from repro.compose.composer import compose, compose_mappings
from repro.compose.config import ComposerConfig
from repro.compose.eliminate import eliminate
from repro.compose.result import EliminationMethod
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import CompositionError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature

R, S, T = Relation("R", 2), Relation("S", 2), Relation("T", 2)


def chain_problem():
    return CompositionProblem(
        sigma1=Signature.from_arities({"R": 2}),
        sigma2=Signature.from_arities({"S": 2}),
        sigma3=Signature.from_arities({"T": 2}),
        sigma12=ConstraintSet([ContainmentConstraint(R, S)]),
        sigma23=ConstraintSet([ContainmentConstraint(S, T)]),
        name="chain",
    )


class TestEliminate:
    def test_not_mentioned_symbol_is_free(self):
        constraints = ConstraintSet([ContainmentConstraint(R, T)])
        result, outcome = eliminate(constraints, "S", 2)
        assert outcome.success
        assert outcome.method is EliminationMethod.NOT_MENTIONED
        assert result == constraints

    def test_view_unfolding_preferred(self):
        constraints = ConstraintSet(
            [EqualityConstraint(S, R), ContainmentConstraint(S, T)]
        )
        _, outcome = eliminate(constraints, "S", 2)
        assert outcome.method is EliminationMethod.VIEW_UNFOLDING

    def test_left_compose_when_unfolding_unavailable(self):
        constraints = ConstraintSet(
            [ContainmentConstraint(S, R), ContainmentConstraint(T, Union(S, T))]
        )
        _, outcome = eliminate(constraints, "S", 2)
        assert outcome.success
        assert outcome.method is EliminationMethod.LEFT_COMPOSE

    def test_right_compose_as_fallback(self):
        # Left compose fails (π(S) upper bound cannot be left-normalized from
        # the ∩ on the left), right compose succeeds.
        constraints = ConstraintSet(
            [ContainmentConstraint(R, S), ContainmentConstraint(S, T)]
        )
        config = ComposerConfig(enable_left_compose=False)
        _, outcome = eliminate(constraints, "S", 2, config)
        assert outcome.method is EliminationMethod.RIGHT_COMPOSE

    def test_failure_reports_reasons(self):
        constraints = ConstraintSet([EqualityConstraint(S, Union(S, R))])
        result, outcome = eliminate(constraints, "S", 2)
        assert not outcome.success
        assert outcome.method is EliminationMethod.FAILED
        assert result == constraints
        assert len(outcome.failure_reasons) == 3

    def test_disabled_steps_recorded(self):
        constraints = ConstraintSet([EqualityConstraint(S, R), ContainmentConstraint(S, T)])
        config = ComposerConfig(
            enable_view_unfolding=False,
            enable_left_compose=False,
            enable_right_compose=False,
        )
        _, outcome = eliminate(constraints, "S", 2, config)
        assert not outcome.success
        assert "view unfolding disabled" in outcome.failure_reasons

    def test_blowup_guard(self):
        # A tiny blow-up factor forces every candidate to be rejected.
        constraints = ConstraintSet(
            [
                ContainmentConstraint(Projection(S, (0, 1)), Union(R, Union(R, T))),
                ContainmentConstraint(R, S),
                ContainmentConstraint(S, Union(T, Union(R, T))),
            ]
        )
        config = ComposerConfig(max_blowup_factor=0.01)
        _, outcome = eliminate(constraints, "S", 2, config)
        assert not outcome.success
        assert outcome.blowup_aborted


class TestCompose:
    def test_simple_chain(self):
        result = compose(chain_problem())
        assert result.is_complete
        assert result.eliminated_symbols == ("S",)
        assert result.constraints == ConstraintSet([ContainmentConstraint(R, T)])
        assert result.fraction_eliminated == 1.0
        assert result.outcome_for("S").success

    def test_result_statistics(self):
        result = compose(chain_problem())
        assert result.input_operator_count == 0
        assert result.output_operator_count == 0
        assert result.blowup_ratio() <= 1.0
        assert result.methods_used() == {EliminationMethod.RIGHT_COMPOSE: 1} or result.methods_used()
        assert "eliminated" in result.summary()

    def test_outcome_for_unknown_symbol_raises(self):
        result = compose(chain_problem())
        with pytest.raises(CompositionError):
            result.outcome_for("Z")

    def test_to_mapping_complete(self):
        result = compose(chain_problem())
        mapping = result.to_mapping()
        assert set(mapping.input_signature.names()) == {"R"}
        assert set(mapping.output_signature.names()) == {"T"}

    def test_partial_result_keeps_symbols(self):
        sigma12 = ConstraintSet([EqualityConstraint(S, Union(S, R))])
        problem = CompositionProblem(
            sigma1=Signature.from_arities({"R": 2}),
            sigma2=Signature.from_arities({"S": 2}),
            sigma3=Signature.from_arities({"T": 2}),
            sigma12=sigma12,
            sigma23=ConstraintSet([ContainmentConstraint(S, T)]),
        )
        result = compose(problem)
        assert not result.is_complete
        assert result.remaining_symbols == ("S",)
        with pytest.raises(CompositionError):
            result.to_mapping()
        residual = result.to_mapping_with_residue()
        assert "S" in residual.input_signature

    def test_symbol_order_respected(self):
        problem = CompositionProblem(
            sigma1=Signature.from_arities({"R": 2}),
            sigma2=Signature.from_arities({"S": 2, "W": 2}),
            sigma3=Signature.from_arities({"T": 2}),
            sigma12=ConstraintSet(
                [ContainmentConstraint(R, S), ContainmentConstraint(R, Relation("W", 2))]
            ),
            sigma23=ConstraintSet([ContainmentConstraint(S, T)]),
        )
        result = compose(problem, ComposerConfig(symbol_order=["W", "S"]))
        assert result.attempted_symbols == ("W", "S")

    def test_symbol_order_with_unknown_symbol_rejected(self):
        with pytest.raises(CompositionError):
            compose(chain_problem(), ComposerConfig(symbol_order=["Nope"]))

    def test_symbol_order_with_duplicate_symbol_rejected(self):
        # A repeated name would be attempted twice, inflating the outcome
        # count (and fraction_eliminated), and would give the config a
        # different fingerprint from the single-name order.
        with pytest.raises(CompositionError, match="more than once"):
            ComposerConfig(symbol_order=("S", "S"))
        with pytest.raises(CompositionError, match="more than once"):
            ComposerConfig().with_symbol_order(["S", "W", "S"])

    def test_symbol_order_missing_symbols_appended(self):
        problem = CompositionProblem(
            sigma1=Signature.from_arities({"R": 2}),
            sigma2=Signature.from_arities({"S": 2, "W": 2}),
            sigma3=Signature.from_arities({"T": 2}),
            sigma12=ConstraintSet([ContainmentConstraint(R, S)]),
            sigma23=ConstraintSet([ContainmentConstraint(S, T)]),
        )
        result = compose(problem, ComposerConfig(symbol_order=["W"]))
        assert set(result.attempted_symbols) == {"W", "S"}

    def test_compose_mappings_wrapper(self):
        m12 = Mapping(
            Signature.from_arities({"R": 2}),
            Signature.from_arities({"S": 2}),
            ConstraintSet([ContainmentConstraint(R, S)]),
        )
        m23 = Mapping(
            Signature.from_arities({"S": 2}),
            Signature.from_arities({"T": 2}),
            ConstraintSet([ContainmentConstraint(S, T)]),
        )
        result = compose_mappings(m12, m23)
        assert result.is_complete

    def test_movies_example_output_shape(self):
        movies = Signature.from_arities({"Movies": 6})
        five_star = Signature.from_arities({"FiveStarMovies": 3})
        split = Signature.from_arities({"Names": 2, "Years": 2})
        m12 = Mapping(
            movies,
            five_star,
            ConstraintSet(
                [
                    ContainmentConstraint(
                        Projection(Selection(Relation("Movies", 6), equals_const(3, 5)), (0, 1, 2)),
                        Relation("FiveStarMovies", 3),
                    )
                ]
            ),
        )
        m23 = Mapping(
            five_star,
            split,
            ConstraintSet(
                [
                    ContainmentConstraint(Projection(Relation("FiveStarMovies", 3), (0, 1)), Relation("Names", 2)),
                    ContainmentConstraint(Projection(Relation("FiveStarMovies", 3), (0, 2)), Relation("Years", 2)),
                ]
            ),
        )
        result = compose_mappings(m12, m23)
        assert result.is_complete
        assert result.output_signature.names() == ("Movies", "Names", "Years")


class TestComposerConfig:
    def test_factory_methods(self):
        assert ComposerConfig.no_view_unfolding().enable_view_unfolding is False
        assert ComposerConfig.no_right_compose().enable_right_compose is False
        assert ComposerConfig.no_left_compose().enable_left_compose is False
        assert ComposerConfig.default().enable_view_unfolding is True

    def test_with_registry_and_order(self):
        from repro.operators.registry import OperatorRegistry

        registry = OperatorRegistry()
        config = ComposerConfig().with_registry(registry).with_symbol_order(["A"])
        assert config.registry is registry
        assert config.symbol_order == ("A",)

    def test_registry_default_is_fresh_copy(self):
        first = ComposerConfig()
        second = ComposerConfig()
        assert first.registry is not second.registry
