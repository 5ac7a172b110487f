"""The benchmark's four release workloads.

Each workload turns a ``--seed`` into plain inputs (per-relation frequency
arrays, a seed for the query family, and a list of release seeds) without
timing anything.  :meth:`Inputs.build` then constructs the query family and
the :class:`~repro.relational.instance.Instance` from those arrays; that
construction is part of the measured set-up, because a user pays it once per
dataset.  Every release goes through the one public entry point,
``repro.release_synthetic_data``, with ``backend="auto"`` and ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import Instance, Workload, release_synthetic_data, single_table_query, two_table_query
from repro.datagen.tpch import generate_tpch
from repro.experiments.e15_evaluator_scaling import _marginal_workload
from repro.relational.hypergraph import JoinQuery, figure4_query

#: Release seeds drawn per run; a run cycles through them until time is up.
RELEASE_SEEDS = 4096


@dataclass(frozen=True)
class Size:
    """The knobs that set a workload's scale (the tests shrink them)."""

    domain: tuple[int, ...]
    tuples: int
    queries: int = 0
    scale: float = 1.0


@dataclass
class Inputs:
    """Seed-derived inputs of one run: arrays in, objects built on demand."""

    query: JoinQuery
    frequencies: dict[str, np.ndarray]
    make_workload: Callable[[JoinQuery], Workload]
    release_kwargs: dict
    release_seeds: list[int] = field(default_factory=list)

    def build(self) -> tuple[Instance, Workload]:
        """Construct the instance and a fresh query family (no cached evaluator)."""
        instance = Instance.from_frequencies(self.query, self.frequencies)
        return instance, self.make_workload(self.query)

    def release(self, instance: Instance, workload: Workload, seed: int):
        return release_synthetic_data(
            instance, workload, backend="auto", workers=1, seed=seed, **self.release_kwargs
        )


def _balanced_frequencies(query: JoinQuery, tuples: int, rng: np.random.Generator) -> dict:
    """Uniform tuples with balanced one-attribute marginals.

    Every value of every attribute appears in ``tuples // |dom|`` or one more
    tuples of each relation; which values pair up is a random shuffle.  The
    joint cells are uniform at random, but no value is over- or
    under-represented by sampling luck, so two seeds give instances of the
    same shape and the release error does not swing with the draw.
    """
    frequencies = {}
    for schema in query.relations:
        columns = []
        for size in schema.shape:
            values = np.arange(tuples) % size
            columns.append(rng.permutation(values))
        counts = np.zeros(schema.shape, dtype=np.int64)
        np.add.at(counts, tuple(columns), 1)
        frequencies[schema.name] = counts
    return frequencies


def _frequencies_of(instance: Instance) -> dict:
    return {
        schema.name: relation.frequencies.copy()
        for schema, relation in zip(instance.query.relations, instance.relations)
    }


def _marginals_2t(size: Size, rng: np.random.Generator) -> Inputs:
    query = two_table_query(*size.domain)
    return Inputs(
        query=query,
        frequencies=_balanced_frequencies(query, size.tuples, rng),
        make_workload=_marginal_workload,
        release_kwargs={"epsilon": 1.0, "delta": 1e-6},
    )


def _ranges_1t(size: Size, rng: np.random.Generator) -> Inputs:
    query = single_table_query({"X": size.domain[0], "Y": size.domain[1]})

    def make_workload(join_query: JoinQuery) -> Workload:
        workload = Workload.attribute_ranges(join_query, "X")
        return workload.extended(
            Workload.attribute_ranges(join_query, "Y", include_counting=False).queries
        )

    return Inputs(
        query=query,
        frequencies=_balanced_frequencies(query, size.tuples, rng),
        make_workload=make_workload,
        release_kwargs={"epsilon": 1.0, "delta": 1e-6},
    )


def _tpch_chain(size: Size, rng: np.random.Generator) -> Inputs:
    instance = generate_tpch(size.scale, rng=rng).nation_customer_orders
    query_seed = int(rng.integers(2**31))

    def make_workload(join_query: JoinQuery) -> Workload:
        return Workload.random_predicates(
            join_query, size.queries, selectivity=0.4, seed=query_seed
        )

    return Inputs(
        query=instance.query,
        frequencies=_frequencies_of(instance),
        make_workload=make_workload,
        release_kwargs={"epsilon": 1.0, "delta": 1e-6},
    )


def skewed_figure4(domain: int, heavy: int, rng: np.random.Generator) -> Instance:
    """A Figure-4 instance whose hierarchical partition has a fixed bucket count.

    One (A, B) pair is heavy in R1 and R2 (``heavy`` tuples each, D and F
    cycling through the domain); every other value combination, drawn from
    ``rng``, has degree at most one.
    Each noisy degree then lands in the same bucket under every draw of the
    partition noise, so every release runs the same number of per-bucket
    releases (four at the full size) and only the noise values differ.
    """
    query = figure4_query(domain)
    tuples: dict[str, list[tuple]] = {name: [] for name in query.relation_names}
    tuples["R1"] += [(0, 0, i % domain) for i in range(heavy)]
    tuples["R2"] += [(0, 0, i % domain) for i in range(heavy)]
    tuples["R3"].append((0, 0, 0, 0))
    tuples["R4"].append((0, 0, 0, 0))
    tuples["R5"].append((0, 0))
    for a in range(1, domain):
        b, d, f, g, k, l, c = (int(v) for v in rng.integers(domain, size=7))
        tuples["R1"].append((a, b, d))
        tuples["R2"].append((a, b, f))
        tuples["R3"].append((a, b, g, k))
        tuples["R4"].append((a, b, g, l))
        tuples["R5"].append((a, c))
    return Instance.from_tuple_lists(query, tuples)


def _hier_uniformize(size: Size, rng: np.random.Generator) -> Inputs:
    (domain,) = size.domain
    instance = skewed_figure4(domain, size.tuples, rng)
    query_seed = int(rng.integers(2**31))

    def make_workload(join_query: JoinQuery) -> Workload:
        return Workload.random_sign(join_query, size.queries, seed=query_seed)

    return Inputs(
        query=instance.query,
        frequencies=_frequencies_of(instance),
        make_workload=make_workload,
        release_kwargs={
            "epsilon": 1.0,
            "delta": 1e-2,
            "method": "uniformize_hierarchical",
        },
    )


@dataclass(frozen=True)
class Spec:
    name: str
    make: Callable[[Size, np.random.Generator], Inputs]
    full: Size
    tiny: Size


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "marginals_2t",
            _marginals_2t,
            full=Size(domain=(128, 64, 128), tuples=20_000),
            tiny=Size(domain=(8, 4, 8), tuples=200),
        ),
        Spec(
            "ranges_1t",
            _ranges_1t,
            full=Size(domain=(128, 128), tuples=12_500),
            tiny=Size(domain=(16, 16), tuples=500),
        ),
        Spec(
            "tpch_chain",
            _tpch_chain,
            full=Size(domain=(), tuples=0, queries=64, scale=16),
            tiny=Size(domain=(), tuples=0, queries=8, scale=1),
        ),
        Spec(
            "hier_uniformize",
            _hier_uniformize,
            full=Size(domain=(4,), tuples=50, queries=32),
            tiny=Size(domain=(2,), tuples=30, queries=4),
        ),
    )
}


def make_inputs(name: str, seed: int, *, tiny: bool = False) -> Inputs:
    """The inputs and release-seed list of workload ``name`` under ``seed``."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed % 2**64, sorted(WORKLOADS).index(name)])
    inputs = spec.make(spec.tiny if tiny else spec.full, rng)
    inputs.release_seeds = [int(s) for s in rng.integers(2**31, size=RELEASE_SEEDS)]
    return inputs
