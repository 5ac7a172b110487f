"""Parity and mode-selection tests for the sparse workload-evaluation engine.

The dense, sparse, and streaming backends must be interchangeable: identical
instance answers (they share the einsum path), histogram answers equal to
1e-9, and supports that round-trip to the dense query vectors.  Mode
selection is one rule over the configured cell budgets, the measured
support sizes and the worker count.
"""

import numpy as np
import pytest

import repro.queries.backends as backends
from repro.experiments.e15_evaluator_scaling import _marginal_workload
from repro.queries.evaluation import (
    WorkloadEvaluator,
    auto_evaluator_mode,
    shared_evaluator,
)
from repro.queries.workload import Workload
from repro.relational.hypergraph import single_table_query, two_table_query
from repro.relational.instance import Instance
from repro.relational.join import join_result

MODES = ("dense", "sparse", "streaming")


@pytest.fixture
def query():
    return two_table_query(6, 5, 4)


@pytest.fixture
def instance(query, rng):
    tuples_r1 = [(int(rng.integers(6)), int(rng.integers(5))) for _ in range(40)]
    tuples_r2 = [(int(rng.integers(5)), int(rng.integers(4))) for _ in range(40)]
    return Instance.from_tuple_lists(query, {"R1": tuples_r1, "R2": tuples_r2})


@pytest.fixture
def workload(query):
    # Marginals (sparse rows) plus random signs (dense rows) plus counting.
    return Workload.attribute_marginals(query, "B").extended(
        Workload.random_sign(query, 5, seed=3, include_counting=False).queries
    )


def _evaluators(workload):
    return {
        mode: WorkloadEvaluator(workload, mode=mode, chunk_size=16) for mode in MODES
    }


class TestModeParity:
    def test_instance_answers_identical(self, workload, instance):
        evaluators = _evaluators(workload)
        reference = evaluators["dense"].answers_on_instance(instance)
        for mode in MODES:
            assert np.array_equal(
                evaluators[mode].answers_on_instance(instance), reference
            ), mode

    def test_histogram_answers_match_to_1e9(self, workload, instance, rng):
        evaluators = _evaluators(workload)
        histograms = [
            join_result(instance).astype(float),
            rng.random(workload.join_query.shape) * 10.0,
        ]
        for histogram in histograms:
            reference = evaluators["dense"].answers_on_histogram(histogram)
            scale = max(1.0, float(np.abs(reference).max()))
            for mode in MODES:
                answers = evaluators[mode].answers_on_histogram(histogram)
                assert np.max(np.abs(answers - reference)) <= 1e-9 * scale, mode

    def test_query_support_roundtrips_to_dense_vector(self, workload):
        evaluators = _evaluators(workload)
        for mode in MODES:
            evaluator = evaluators[mode]
            for index in range(len(workload)):
                indices, values = evaluator.query_support(index)
                dense = np.zeros(evaluator.domain_size)
                dense[indices] = values
                assert np.array_equal(dense, evaluators["dense"].query_values(index)), (
                    mode,
                    index,
                )

    def test_chunked_support_build_matches_dense_build(self, workload, monkeypatch):
        import repro.queries.backends as backends

        reference = WorkloadEvaluator(workload, mode="sparse")
        # Force the chunked scan (normally reserved for huge joint domains).
        monkeypatch.setattr(backends, "_DENSE_BUILD_BUDGET", 0)
        chunked = WorkloadEvaluator(workload, mode="sparse", chunk_size=16)
        for index in range(len(workload)):
            ref_indices, ref_values = reference.query_support(index)
            chk_indices, chk_values = chunked.query_support(index)
            assert np.array_equal(ref_indices, chk_indices)
            assert np.array_equal(ref_values, chk_values)

    def test_support_size_matches_nnz(self, workload):
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        for index in range(len(workload)):
            nnz = int(np.count_nonzero(evaluator.query_values(index)))
            assert evaluator.support_size(index) == nnz
        assert evaluator.total_support_size() == sum(
            evaluator.support_size(index) for index in range(len(workload))
        )

    def test_marginal_supports_are_small(self, query):
        workload = Workload.attribute_marginals(query, "B", include_counting=False)
        evaluator = WorkloadEvaluator(workload, mode="sparse")
        # Each B-marginal touches exactly |dom(A)|·|dom(C)| of the |D| cells.
        domain = query.joint_domain_size
        expected = domain // query.attribute("B").domain.size
        for index in range(len(workload)):
            assert evaluator.support_size(index) == expected


@pytest.fixture(params=[1, 2], ids=["1-core", "2-cores"])
def fallback_mode(request, monkeypatch):
    """The budget-exhausted auto choice on a host with ``request.param`` cores.

    The rule reads the requested worker count, never the host's cores, so
    the serial streaming scan is the last resort on one core and on two.
    """
    monkeypatch.setattr(backends, "effective_cpu_count", lambda: request.param)
    return "streaming"


class TestModeSelection:
    @pytest.mark.parametrize(
        "cell_budget, sparse_cell_budget, workers, expected",
        [
            (10**9, 10**9, 1, "dense"),
            (10**9, 10**9, 2, "dense"),
            (10**9, 10, 2, "dense"),
            (10, 10**9, 1, "sparse"),
            (10, 10**9, 2, "sparse"),
            (10, 10, 1, "streaming"),
            (10, 10, 2, "streaming"),
        ],
    )
    def test_auto_rule(self, workload, cell_budget, sparse_cell_budget, workers, expected):
        """dense, else sparse, else streaming; the worker count never steers it."""
        budgets = dict(cell_budget=cell_budget, sparse_cell_budget=sparse_cell_budget)
        assert auto_evaluator_mode(workload, **budgets) == expected
        for count in {1, workers}:
            evaluator = WorkloadEvaluator(workload, workers=count, **budgets)
            try:
                assert evaluator.mode == expected
                assert evaluator.workers == count
            finally:
                evaluator.close()

    def test_sparse_exactly_while_the_supports_fit(self, workload):
        total = WorkloadEvaluator(workload, mode="sparse").total_support_size()
        for budget, expected in ((total, "sparse"), (total - 1, "streaming")):
            mode = auto_evaluator_mode(workload, cell_budget=10, sparse_cell_budget=budget)
            assert mode == expected

    def test_auto_picks_dense_under_budget(self, workload):
        assert WorkloadEvaluator(workload).mode == "dense"

    def test_auto_picks_sparse_over_matrix_budget(self, workload):
        evaluator = WorkloadEvaluator(workload, cell_budget=10)
        assert evaluator.mode == "sparse"
        assert not evaluator.has_matrix

    def test_auto_falls_back_to_streaming(self, workload, fallback_mode):
        evaluator = WorkloadEvaluator(workload, cell_budget=10, sparse_cell_budget=10)
        assert evaluator.mode == fallback_mode

    def test_sparse_evaluator_never_dense(self, workload, fallback_mode):
        never_dense = WorkloadEvaluator(workload, mode="auto", cell_budget=0)
        assert never_dense.mode == "sparse"
        assert not never_dense.has_matrix
        assert (
            WorkloadEvaluator(
                workload, mode="auto", cell_budget=0, sparse_cell_budget=10
            ).mode
            == fallback_mode
        )

    def test_auto_picks_sparse_at_e15_scale(self):
        # |Q| = 321 one-hot marginals over |D| = 2^20: the dense matrix is
        # priced out, and the measured supports (4.2M entries) fit the
        # sparse budget.
        workload = _marginal_workload(two_table_query(128, 64, 128))
        assert len(workload) == 321
        assert workload.join_query.joint_domain_size == 2**20
        assert auto_evaluator_mode(workload) == "sparse"

    def test_auto_keeps_dense_for_prefix_ranges(self):
        query = single_table_query({"X": 128, "Y": 128})
        workload = Workload.attribute_ranges(query, "X").extended(
            Workload.attribute_ranges(query, "Y", include_counting=False).queries
        )
        assert auto_evaluator_mode(workload) == "dense"

    def test_auto_evaluator_mode_matches_constructor_choice(self, workload, fallback_mode):
        assert auto_evaluator_mode(workload) == WorkloadEvaluator(workload).mode
        assert auto_evaluator_mode(workload, cell_budget=10) == "sparse"
        assert (
            auto_evaluator_mode(workload, cell_budget=10, sparse_cell_budget=10)
            == fallback_mode
        )

    def test_invalid_mode_rejected(self, workload):
        with pytest.raises(ValueError):
            WorkloadEvaluator(workload, mode="magic")
        with pytest.raises(ValueError):
            WorkloadEvaluator(workload, chunk_size=0)


class TestSharedEvaluator:
    def test_same_workload_shares_one_evaluator(self, workload):
        assert shared_evaluator(workload) is shared_evaluator(workload)

    def test_distinct_workloads_get_distinct_evaluators(self, query):
        first = Workload.counting(query)
        second = Workload.counting(query)
        assert shared_evaluator(first) is not shared_evaluator(second)
