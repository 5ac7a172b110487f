"""Oracle test for the residual-sensitivity kernel.

The reference below is the row-by-row enumeration the kernel replaced, kept
verbatim (apart from names): it materialises the whole simplex per call, sums
each subset's term over every row, and takes the per-``k`` maxima with one
mask per ``k``.  The kernel must reproduce its values bitwise.
"""

from __future__ import annotations

import inspect
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.core.multi_table import default_beta
from repro.datagen.random_instances import random_instance
from repro.relational.hypergraph import chain_query, figure4_query, path3_query, two_table_query
from repro.sensitivity import configurations, residual
from repro.sensitivity.boundary import all_boundary_queries
from repro.sensitivity.configurations import (
    configuration_of_instance,
    configuration_residual_upper_bound,
)
from repro.sensitivity.residual import (
    _MAX_ENUMERATION_ROWS,
    certified_cutoff,
    maximize_residual_objective,
    residual_sensitivity_profile,
)

#: Largest simplex the reference enumerates, to keep the suite fast; above it
#: both sides run at the largest explicit ``k_max`` that fits.
_REFERENCE_ROWS = 250_000


def reference_simplex_points(num_parts: int, total_cap: int) -> np.ndarray:
    """All non-negative integer vectors of length ``num_parts`` with sum ≤ ``total_cap``."""
    if num_parts == 0:
        return np.zeros((1, 0), dtype=np.int64)
    points = np.arange(total_cap + 1, dtype=np.int64).reshape(-1, 1)
    for _ in range(num_parts - 1):
        sums = points.sum(axis=1)
        blocks = []
        for value in range(total_cap + 1):
            keep = points[sums + value <= total_cap]
            if keep.size == 0:
                continue
            column = np.full((keep.shape[0], 1), value, dtype=np.int64)
            blocks.append(np.hstack([keep, column]))
        points = np.vstack(blocks)
        if points.shape[0] > _MAX_ENUMERATION_ROWS:
            raise MemoryError(
                "residual-sensitivity enumeration exceeded the row budget; "
                "use a larger beta or pass an explicit k_max"
            )
    return points


def reference_maximize(
    coefficients_by_subset: dict[frozenset[int], float],
    relation_indices: tuple[int, ...],
    excluded_index: int,
    beta: float,
    total_cap: int,
    *,
    points: np.ndarray | None = None,
) -> tuple[float, dict[int, float]]:
    """Maximise ``e^{-β·Σs} Σ_E T_{O∖E}·Π_{j∈E}s_j`` over vectors with sum ≤ cap.

    ``O`` is ``relation_indices`` minus ``excluded_index``.  Returns the best
    value and the per-``k`` maxima of the inner sum (used by the profile).
    ``points`` lets callers reuse one simplex enumeration across several
    excluded indices (all have the same dimension ``m − 1``).
    """
    others = [index for index in relation_indices if index != excluded_index]
    if points is None:
        points = reference_simplex_points(len(others), total_cap)
    sums = points.sum(axis=1)
    objective = np.zeros(points.shape[0], dtype=float)
    for subset_size in range(len(others) + 1):
        for chosen_positions in combinations(range(len(others)), subset_size):
            chosen = [others[position] for position in chosen_positions]
            remaining = frozenset(set(others) - set(chosen))
            coefficient = float(coefficients_by_subset[remaining])
            if coefficient == 0.0:
                continue
            if chosen_positions:
                term = coefficient * points[:, list(chosen_positions)].prod(axis=1)
            else:
                term = np.full(points.shape[0], coefficient)
            objective += term
    weighted = np.exp(-beta * sums) * objective
    best = float(weighted.max()) if weighted.size else 0.0
    per_k: dict[int, float] = {}
    for k in range(total_cap + 1):
        mask = sums == k
        if mask.any():
            per_k[k] = float(objective[mask].max())
    return best, per_k


def reference_profile(instance, beta: float, cutoff: int) -> tuple[float, dict[int, float]]:
    """The replaced profile loop: one reference maximisation per excluded relation."""
    m = instance.query.num_relations
    relation_indices = tuple(range(m))
    coefficients = {key: float(value) for key, value in all_boundary_queries(instance).items()}
    best_value = 0.0
    ls_hat_by_k: dict[int, float] = {}
    shared_points = reference_simplex_points(m - 1, cutoff)
    for i in relation_indices:
        value, per_k = reference_maximize(
            coefficients, relation_indices, i, beta, cutoff, points=shared_points
        )
        best_value = max(best_value, value)
        for k, inner in per_k.items():
            ls_hat_by_k[k] = max(ls_hat_by_k.get(k, 0.0), inner)
    return best_value, ls_hat_by_k


QUERIES = {
    2: lambda: two_table_query(4, 3, 4),
    3: lambda: path3_query(3, 4, 3, 3),
    4: lambda: chain_query([3, 4, 3, 4, 3]),
    5: lambda: figure4_query(3),
}
BETAS = [0.05, 0.3, 1.0, default_beta(1.0, 1e-6)]


def _reference_cap(num_relations: int, cap: int) -> int:
    parts = num_relations - 1
    while comb(cap + parts, parts) > _REFERENCE_ROWS:
        cap -= 1
    return cap


class TestKernelMatchesReference:
    @pytest.mark.parametrize("num_relations", sorted(QUERIES))
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_instance_profiles_are_bitwise_equal(self, num_relations, beta, seed):
        instance = random_instance(QUERIES[num_relations](), 10, max_multiplicity=3, seed=seed)
        cutoff = certified_cutoff(num_relations, beta)
        cap = _reference_cap(num_relations, cutoff)
        profile = residual_sensitivity_profile(instance, beta, k_max=None if cap == cutoff else cap)
        value, ls_hat_by_k = reference_profile(instance, beta, cap)
        assert profile.value == value
        assert profile.ls_hat_by_k == ls_hat_by_k
        assert list(profile.ls_hat_by_k) == list(ls_hat_by_k)

    @pytest.mark.parametrize("num_relations", sorted(QUERIES))
    @pytest.mark.parametrize("k_max", [0, 1, 7])
    def test_explicit_k_max_is_bitwise_equal(self, num_relations, k_max):
        instance = random_instance(QUERIES[num_relations](), 10, max_multiplicity=3, seed=4)
        profile = residual_sensitivity_profile(instance, 0.3, k_max=k_max)
        value, ls_hat_by_k = reference_profile(instance, 0.3, k_max)
        assert not profile.certified
        assert profile.value == value
        assert profile.ls_hat_by_k == ls_hat_by_k

    @pytest.mark.parametrize("num_relations", [2, 3, 5])
    def test_float_coefficients_are_bitwise_equal(self, num_relations):
        rng = np.random.default_rng(num_relations)
        coefficients = {
            frozenset(subset): float(rng.random() * 10.0 ** rng.integers(0, 6))
            for size in range(num_relations + 1)
            for subset in combinations(range(num_relations), size)
        }
        indices = tuple(range(num_relations))
        for excluded in indices:
            got = maximize_residual_objective(coefficients, indices, excluded, 0.4, 12)
            assert got == reference_maximize(coefficients, indices, excluded, 0.4, 12)

    @pytest.mark.parametrize("lam", [0.7, 1.3, 2.9])
    def test_configuration_bounds_are_bitwise_equal(self, figure4_instance, monkeypatch, lam):
        query = figure4_instance.query
        configuration = configuration_of_instance(figure4_instance, lam)
        got = configuration_residual_upper_bound(query, configuration, 0.5, lam)
        monkeypatch.setattr(configurations, "maximize_residual_objective", reference_maximize)
        assert got == configuration_residual_upper_bound(query, configuration, 0.5, lam)


class TestSimplexCache:
    def test_row_budget_fires_before_enumerating(self, figure4_instance):
        residual._cached_sorted_simplex.cache_clear()
        beta = 1e-3
        parts = figure4_instance.query.num_relations - 1
        cutoff = certified_cutoff(parts + 1, beta)
        assert comb(cutoff + parts, parts) > _MAX_ENUMERATION_ROWS
        with pytest.raises(MemoryError, match="row budget"):
            residual_sensitivity_profile(figure4_instance, beta)
        assert residual._cached_sorted_simplex.cache_info().currsize == 0

    def test_cache_is_keyed_by_parts_and_cap_only(self, figure4_instance, path3_instance):
        assert list(inspect.signature(residual._build_sorted_simplex).parameters) == [
            "num_parts",
            "total_cap",
        ]
        cache = residual._cached_sorted_simplex
        cache.cache_clear()
        # Two instances and two betas with one cutoff share one table.
        for instance in (figure4_instance, random_instance(figure4_instance.query, 6, seed=2)):
            for beta in (0.3, 0.31):
                assert certified_cutoff(5, beta) == certified_cutoff(5, 0.3)
                residual_sensitivity_profile(instance, beta)
        info = cache.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)

    def test_cache_stays_bounded(self, path3_instance):
        cache = residual._cached_sorted_simplex
        cache.cache_clear()
        for k_max in range(12):
            residual_sensitivity_profile(path3_instance, 0.5, k_max=k_max)
        assert cache.cache_info().currsize == cache.cache_info().maxsize < 12

    def test_cached_tables_are_read_only(self):
        columns, starts = residual._sorted_simplex(3, 5)
        assert not columns.flags.writeable
        assert not starts.flags.writeable
        assert columns.shape == (3, comb(5 + 3, 3))
        sums = columns.sum(axis=0)
        assert np.all(np.diff(sums) >= 0)
        assert np.array_equal(starts, np.searchsorted(sums, np.arange(7)))
