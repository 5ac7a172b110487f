"""``contract``: einsum along a cached greedy path, never a cached value.

Every instance-side aggregate (true answers, join sizes, boundary queries)
goes through :func:`repro.relational.join.contract`.  On the integer-valued
operands of the shipped join shapes it must reproduce the unoptimised
``np.einsum`` bitwise; the path cache may only ever hold contraction paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.random_instances import random_instance
from repro.datagen.tpch import generate_tpch
from repro.queries import linear
from repro.queries.evaluation import WorkloadEvaluator
from repro.queries.linear import ProductQuery, TableQuery
from repro.queries.workload import Workload
from repro.relational import join
from repro.relational.hypergraph import (
    figure4_query,
    path3_query,
    single_table_query,
    two_table_query,
)
from repro.relational.join import contract, join_size
from repro.sensitivity.boundary import all_boundary_queries


def _plain_einsum(subscript, *operands):
    return np.einsum(subscript, *operands)


def _shipped_instances():
    return {
        "single_table": random_instance(
            single_table_query({"X": 6, "Y": 5}), 40, max_multiplicity=3, seed=0
        ),
        "two_table": random_instance(two_table_query(6, 4, 5), 30, max_multiplicity=3, seed=1),
        "path3": random_instance(path3_query(4, 5, 4, 3), 25, max_multiplicity=3, seed=2),
        "figure4": random_instance(figure4_query(3), 20, max_multiplicity=3, seed=3),
        "tpch_chain": generate_tpch(0.5, seed=4).nation_customer_orders,
    }


SHAPES = sorted(_shipped_instances())


@pytest.fixture(scope="module")
def instances():
    return _shipped_instances()


def _aggregates(instance, workload):
    evaluator = WorkloadEvaluator(workload)
    return (
        evaluator.answers_on_instance(instance),
        join_size(instance),
        all_boundary_queries(instance),
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_shipped_shapes_match_plain_einsum_bitwise(instances, monkeypatch, shape):
    instance = instances[shape]
    workload = Workload.random_sign(instance.query, 12, seed=5).extended(
        Workload.random_predicates(instance.query, 12, selectivity=0.4, seed=6).queries
    )
    answers, size, boundary = _aggregates(instance, workload)
    monkeypatch.setattr(join, "contract", _plain_einsum)
    monkeypatch.setattr(linear, "contract", _plain_einsum)
    plain_answers, plain_size, plain_boundary = _aggregates(instance, workload)
    assert np.array_equal(answers, plain_answers)
    assert size == plain_size
    assert boundary == plain_boundary


@pytest.mark.parametrize("shape", SHAPES)
def test_fractional_weights_agree_to_rounding(instances, shape):
    instance = instances[shape]
    rng = np.random.default_rng(7)
    query = ProductQuery(
        instance.query,
        [
            TableQuery(schema.name, rng.uniform(-1.0, 1.0, size=schema.shape))
            for schema in instance.query.relations
        ],
    )
    operands = [
        relation.frequencies * table.weights
        for relation, table in zip(instance.relations, query.table_queries)
    ]
    letters = join._letters_for(instance.query)
    subscript = ",".join(
        "".join(letters[name] for name in relation.attribute_names)
        for relation in instance.relations
    ) + "->"
    assert query.evaluate(instance) == pytest.approx(
        float(np.einsum(subscript, *operands)), rel=1e-12, abs=1e-12
    )


def test_in_place_mutation_gives_fresh_answers(instances):
    instance = instances["path3"]
    workload = Workload.random_sign(instance.query, 6, seed=8)
    before = WorkloadEvaluator(workload).answers_on_instance(instance)
    size_before = join_size(instance)
    frequencies = instance.relations[1].frequencies
    frequencies.setflags(write=True)
    try:
        frequencies += 2
        after = WorkloadEvaluator(workload).answers_on_instance(instance)
        size_after = join_size(instance)
        expected = [query.evaluate(instance) for query in workload]
        frequencies -= 2
    finally:
        frequencies.setflags(write=False)
    assert size_after > size_before
    assert not np.array_equal(after, before)
    assert np.array_equal(after, expected)


def test_path_cache_holds_paths_keyed_by_shape():
    join._greedy_path.cache_clear()
    a = np.arange(12).reshape(3, 4)
    b = np.arange(20).reshape(4, 5)
    first = contract("ab,bc->", a, b)
    second = contract("ab,bc->", a + 1, b)
    assert first == np.einsum("ab,bc->", a, b)
    assert second == np.einsum("ab,bc->", a + 1, b)
    info = join._greedy_path.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert 0 < info.maxsize < 10_000


def test_single_operand_skips_the_path_machinery(instances, monkeypatch):
    def refuse(*args):
        raise AssertionError("a single-operand contraction must not compute a path")

    monkeypatch.setattr(join, "_greedy_path", refuse)
    instance = instances["single_table"]
    workload = Workload.random_sign(instance.query, 4, seed=9)
    answers = WorkloadEvaluator(workload).answers_on_instance(instance)
    assert answers.shape == (len(workload),)
    assert join_size(instance) == int(instance.relations[0].frequencies.sum())
    assert contract("ab->a", np.ones((2, 3))).tolist() == [3.0, 3.0]
