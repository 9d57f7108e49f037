"""Tests for per-symbol elapsed-time recording in COMPOSE.

Every :class:`EliminationOutcome` of a ``compose()`` result carries the
wall-clock time ELIMINATE spent on that symbol, so the per-symbol timings the
experiments aggregate (Figure 3) are available directly from the result.
"""

from repro.compose.composer import compose
from repro.compose.eliminate import eliminate
from repro.constraints.constraint_set import ConstraintSet
from repro.literature.problems import all_problems


def _sample_problems(count=5):
    return [problem.problem for problem in all_problems()[:count]]


def test_every_outcome_records_positive_duration():
    for problem in _sample_problems():
        result = compose(problem)
        assert result.outcomes, "sample problem should attempt at least one symbol"
        for outcome in result.outcomes:
            assert outcome.duration_seconds > 0.0, outcome


def test_eliminate_bucket_is_the_sum_of_outcome_durations():
    # Each attempt is timed once: the duration ELIMINATE stamps on the
    # outcome is the number it charges to the "eliminate" phase bucket.
    for problem in _sample_problems():
        result = compose(problem)
        assert result.phase_breakdown()["eliminate"] == result.elimination_seconds


def test_per_symbol_durations_sum_below_total_elapsed():
    for problem in _sample_problems():
        result = compose(problem)
        assert result.elimination_seconds == sum(
            outcome.duration_seconds for outcome in result.outcomes
        )
        # The whole-run timer also covers the final simplification pass, so it
        # bounds the per-symbol total from above.
        assert result.elimination_seconds <= result.elapsed_seconds


def test_compose_times_not_mentioned_symbols_too():
    # A symbol no constraint mentions is eliminated for free, but in fixed
    # order it still passes through ELIMINATE, which records its (tiny) time.
    problem = _sample_problems(1)[0]
    result = compose(problem)
    for outcome in result.outcomes:
        assert outcome.duration_seconds > 0.0


def test_standalone_eliminate_still_records_its_own_timing():
    problem = _sample_problems(1)[0]
    symbol = problem.sigma2.names()[0]
    _, outcome = eliminate(
        problem.all_constraints, symbol, problem.sigma2.arity_of(symbol)
    )
    assert outcome.duration_seconds > 0.0


def test_empty_constraint_set_outcome_timed():
    _, outcome = eliminate(ConstraintSet(), "ghost", 2)
    assert outcome.success
    assert outcome.duration_seconds > 0.0
