"""Tests for the batch composition engine (:mod:`repro.engine.batch`)."""

import gc
import time

import pytest

from repro.engine.batch import (
    BatchComposer,
    BatchConfig,
    ProblemStatus,
)
from repro.engine.chain import compose_chain
from repro.engine.workloads import WorkloadConfig, generate_workload, pairwise_problems
from repro.exceptions import EngineError


class TestBatchConfig:
    def test_invalid_timeout_rejected(self):
        with pytest.raises(EngineError):
            BatchConfig(timeout_seconds=0)

    def test_fail_fast_on_pool_backend_preserves_exception_type(self):
        ran = []

        def bad(x):
            ran.append(x)
            if x == 3:
                raise KeyError("original type survives")
            return x

        composer = BatchComposer(BatchConfig(fail_fast=True))
        with pytest.raises(KeyError):
            composer.map(bad, list(range(20)))
        # The batch stops at the failing item: nothing after it runs.
        assert ran == [0, 1, 2, 3]

    def test_failure_error_includes_traceback(self):
        def bad(_):
            raise ValueError("with traceback")

        report = BatchComposer().map(bad, [1])
        assert "Traceback" in report.failed[0].error
        assert "with traceback" in report.failed[0].error


class TestMap:
    def test_results_in_submission_order(self):
        report = BatchComposer().map(lambda x: x * 10, list(range(8)))
        assert [item.result for item in report.items] == [x * 10 for x in range(8)]
        assert [item.index for item in report.items] == list(range(8))
        assert [item.label for item in report.items] == [
            f"problem[{x}]" for x in range(8)
        ]
        assert report.all_succeeded

    def test_failure_isolation(self):
        def flaky(x):
            if x == 2:
                raise ValueError("boom on 2")
            return x

        report = BatchComposer().map(flaky, [0, 1, 2, 3])
        assert len(report.succeeded) == 3
        assert len(report.failed) == 1
        failed = report.failed[0]
        assert failed.index == 2
        assert failed.status is ProblemStatus.FAILED
        assert "boom on 2" in failed.error
        with pytest.raises(EngineError, match="1/4"):
            report.raise_failures()

    def test_fail_fast_reraises(self):
        def bad(_):
            raise RuntimeError("stop everything")

        composer = BatchComposer(BatchConfig(fail_fast=True))
        with pytest.raises(RuntimeError, match="stop everything"):
            composer.map(bad, [1])

    def test_soft_timeout_classification(self):
        def slow(x):
            if x == 1:
                time.sleep(0.05)
            return x

        composer = BatchComposer(BatchConfig(timeout_seconds=0.02))
        report = composer.map(slow, [0, 1, 2])
        assert len(report.timed_out) == 1
        timed_out = report.timed_out[0]
        assert timed_out.index == 1
        assert timed_out.result is None
        assert timed_out.elapsed_seconds > 0.02
        assert "0.02 s" in timed_out.error
        # The over-budget item does not stop the batch.
        assert {item.index for item in report.succeeded} == {0, 2}
        assert [item.result for item in report.succeeded] == [0, 2]

    def test_cyclic_gc_paused_during_batch_and_restored(self):
        seen = BatchComposer().map(lambda _: gc.isenabled(), [0, 1])
        assert [item.result for item in seen.items] == [False, False]
        assert gc.isenabled()

        def bad(_):
            raise KeyError("fail fast")

        with pytest.raises(KeyError):
            BatchComposer(BatchConfig(fail_fast=True)).map(bad, [0])
        assert gc.isenabled()

    def test_gc_left_disabled_when_caller_disabled_it(self):
        gc.disable()
        try:
            BatchComposer().map(lambda x: x, [0])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_label_mismatch_rejected(self):
        composer = BatchComposer()
        with pytest.raises(EngineError, match="labels"):
            composer.map(lambda x: x, [1, 2], labels=["only-one"])


class TestRunChains:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            WorkloadConfig(num_problems=8, min_chain_length=4, max_chain_length=5, seed=5)
        )

    def test_payloads_are_chain_results(self, workload):
        report = BatchComposer().run_chains(workload)
        assert report.all_succeeded
        assert report.items[0].label == workload[0].name
        for item, problem in zip(report.items, workload):
            assert item.result.chain_length == problem.chain_length

    def test_backends_agree(self, workload):
        report = BatchComposer().run_chains(workload)
        for item, problem in zip(report.items, workload):
            direct = compose_chain(problem.mappings)
            assert item.result.constraints.to_text() == direct.constraints.to_text()
            assert item.result.residual_symbols == direct.residual_symbols

    def test_cache_stats_reported_when_sharing(self, workload):
        report = BatchComposer().run_chains(workload)
        assert report.cache_stats is not None
        assert report.cache_stats["hits"] > 0
        off = BatchComposer(BatchConfig(share_expression_cache=False)).run_chains(workload)
        assert off.cache_stats is None
        for a, b in zip(report.items, off.items):
            assert a.result.constraints == b.result.constraints

    def test_report_statistics(self, workload):
        report = BatchComposer().run_chains(workload)
        assert len(report) == len(workload)
        assert report.throughput() > 0
        assert report.total_problem_seconds() > 0
        assert 0.0 <= report.mean_fraction_eliminated() <= 1.0
        assert f"{len(workload)}/{len(workload)} problems succeeded" in report.summary()


class TestRun:
    def test_pairwise_problems_compose(self):
        workload = generate_workload(
            WorkloadConfig(num_problems=3, min_chain_length=4, max_chain_length=4, seed=9)
        )
        problems = [p for chain in workload for p in pairwise_problems(chain)]
        report = BatchComposer().run(problems)
        assert report.all_succeeded
        assert report.items[0].label == problems[0].name


def test_acceptance_workload_fifty_problems_zero_crashes():
    """The ISSUE acceptance criterion: >= 50 seeded problems, chain length >= 4,
    through the BatchComposer with zero crashes."""
    workload = generate_workload(
        WorkloadConfig(num_problems=50, min_chain_length=4, max_chain_length=6, seed=2006)
    )
    assert len(workload) >= 50
    assert all(problem.chain_length >= 4 for problem in workload)
    report = BatchComposer().run_chains(workload)
    assert len(report) == 50
    assert report.all_succeeded, report.summary()
