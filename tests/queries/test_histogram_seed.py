"""HistogramSeed spec and the facade's seed/initial exclusivity.

The seed spec is what lets PMW describe "uniform mass ``noisy_total`` over
the whole domain" in O(1) space — the parent process never allocates the
``|D|``-cell array; each backend materializes only the ranges it owns.
"""

import numpy as np
import pytest

from repro.queries.backends import HistogramSeed
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.workload import Workload
from repro.relational.hypergraph import two_table_query


def _workload():
    query = two_table_query(3, 2, 4)
    return Workload.attribute_marginals(query, "B")


class TestHistogramSeed:
    def test_uniform_is_one_scalar(self):
        seed = HistogramSeed.uniform(12.0)
        assert seed.is_uniform
        assert seed.cell_value(24) == pytest.approx(0.5)
        cells = seed.cells(4, 10, 24)
        assert np.array_equal(cells, np.full(6, 0.5))
        assert np.array_equal(seed.materialize(4), np.full(4, 3.0))

    def test_uniform_rejects_bad_totals(self):
        with pytest.raises(ValueError):
            HistogramSeed.uniform(-1.0)
        with pytest.raises(ValueError):
            HistogramSeed.uniform(float("nan"))
        with pytest.raises(ValueError):
            HistogramSeed.uniform(float("inf"))

    def test_from_array_flattens_and_validates_size(self):
        seed = HistogramSeed.from_array(np.ones((2, 3)))
        assert np.array_equal(seed.cells(2, 5, 6), np.ones(3))
        with pytest.raises(ValueError):
            seed.cells(0, 3, 7)  # domain size disagrees with the array

    def test_exactly_one_field_enforced(self):
        with pytest.raises(ValueError):
            HistogramSeed(total=None, array=None)
        with pytest.raises(ValueError):
            HistogramSeed(total=1.0, array=np.ones(2))


class TestFacadeSeeding:
    def test_initial_and_seed_are_mutually_exclusive(self):
        evaluator = WorkloadEvaluator(_workload(), mode="sparse")
        domain_size = evaluator.domain_size
        flat = np.ones(domain_size)
        with pytest.raises(ValueError):
            evaluator.histogram_session()
        with pytest.raises(ValueError):
            evaluator.histogram_session(flat, seed=HistogramSeed.uniform(1.0))

    @pytest.mark.parametrize("mode", ["sparse", "domain"])
    def test_seeded_session_matches_materialized_initial(self, mode):
        workload = _workload()
        evaluator = WorkloadEvaluator(workload, mode=mode, workers=2)
        serial = WorkloadEvaluator(workload, mode="sparse")
        domain_size = evaluator.domain_size
        try:
            session = evaluator.histogram_session(seed=HistogramSeed.uniform(8.0))
            reference = serial.answers_on_histogram(
                np.full(domain_size, 8.0 / domain_size)
            )
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.max(np.abs(session.answers() - reference)) <= 1e-9 * scale
            assert session.total() == pytest.approx(8.0)
            session.close()
        finally:
            evaluator.close()
