"""Residual sensitivity ``RS^β_count(I)`` (Definition 3.6).

Residual sensitivity is the efficiently computable, constant-factor
approximation of smooth sensitivity introduced by Dong and Yi; the paper uses
it to calibrate the noisy sensitivity bound Δ̃ of Algorithm 3.  The definition
is

    RS^β(I)   = max_{k ≥ 0} e^{-βk} · LŜ^k(I),
    LŜ^k(I)   = max_{s ∈ S_k} max_i  Σ_{E ⊆ [m]∖{i}}  T_{([m]∖{i})∖E}(I) · Π_{j∈E} s_j,

where ``S_k`` are the non-negative integer vectors summing to ``k`` and ``T``
are the maximum boundary queries.

Computation strategy
--------------------
The query size ``m`` is a constant (data complexity), so the subsets are
enumerated exactly, and the maximisation over ``k`` and over the integer
vectors ``s`` is carried out jointly by enumerating every non-negative integer
vector of length ``m − 1`` with coordinate sum at most a cutoff ``K``.

The enumeration depends only on ``(m − 1, K)``, never on the instance, so it
is built once, sorted by coordinate sum, and kept in a small LRU cache (four
tables of at most 16 MiB each; the ``m = 5``, ``K = 47`` table has 249,900
rows × 4 coordinates, 7.6 MiB of float64).  The row budget is checked from
``C(K + m − 1, m − 1)`` before anything is allocated.  One kernel then
serves every excluded relation ``i`` at once.  It walks the sorted rows in
blocks of ``_BLOCK_ROWS``; it builds the monomial ``Π_{j∈E} s_j`` of each
coordinate subset ``E`` from the monomial of ``E`` minus its last coordinate
(one multiply per subset, exact: no monomial exceeds the row budget); and it
adds each subset's term to an ``m × block`` objective in the order of the
original sum, so every value is bitwise the one a row-by-row evaluation
gives.  Because the rows are sorted by sum, the per-``k`` maxima ``LŜ^k`` of
a block are one segmented ``np.maximum.reduceat``.  The transient arrays are
the block's ``2^{m−1}`` monomials plus the objective and one term, about
1.7 MiB at ``m = 5``, whatever ``K`` is.

The cutoff is exact, not heuristic: removing one unit from the largest
coordinate of an optimal ``s ∈ S_{k+1}`` shrinks every product term by at most
a factor ``1 − (m−1)/(k+1)``, so

    e^{-β(k+1)}·LŜ^{k+1}  ≤  e^{-βk}·LŜ^k · e^{-β} / (1 − (m−1)/(k+1)),

which is strictly decreasing once ``k + 1 > (m−1)/(1 − e^{-β})``.  Taking
``K = ⌈(m−1)/(1 − e^{-β})⌉ + 2`` therefore covers the global maximiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import ceil, comb, exp, expm1

import numpy as np

from repro.relational.instance import Instance
from repro.sensitivity.boundary import all_boundary_queries

#: Safety valve on the size of the enumerated vector table.
_MAX_ENUMERATION_ROWS = 30_000_000

#: Simplex rows evaluated per block; bounds the kernel's transient arrays.
_BLOCK_ROWS = 1 << 13

#: Largest simplex (rows × coordinates) kept in the cache: 16 MiB of float64.
_CACHED_VALUES = 1 << 21


def certified_cutoff(num_relations: int, beta: float) -> int:
    """Smallest enumeration cap guaranteed to contain the maximising ``k``."""
    if num_relations <= 1:
        return 1
    decay = -expm1(-beta)  # 1 - e^{-beta}
    return int(ceil((num_relations - 1) / decay)) + 2


def _sorted_simplex(num_parts: int, total_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every vector of ``num_parts`` non-negative integers with sum ≤ ``total_cap``.

    Returns ``(columns, starts)``: ``columns[j]`` is coordinate ``j`` of every
    vector (as float64, exact), with the vectors ordered by coordinate sum,
    and the vectors summing to ``k`` are rows ``starts[k]:starts[k + 1]``.
    Tables of at most ``_CACHED_VALUES`` entries come from a small LRU cache
    keyed by ``(num_parts, total_cap)``; larger ones are built per call.
    """
    rows = comb(total_cap + num_parts, num_parts)
    if rows > _MAX_ENUMERATION_ROWS:
        raise MemoryError(
            "residual-sensitivity enumeration exceeded the row budget; "
            "use a larger beta or pass an explicit k_max"
        )
    if rows * num_parts > _CACHED_VALUES:
        return _build_sorted_simplex(num_parts, total_cap)
    return _cached_sorted_simplex(num_parts, total_cap)


def _build_sorted_simplex(num_parts: int, total_cap: int) -> tuple[np.ndarray, np.ndarray]:
    # Extend by one coordinate at a time, keeping the sums within the cap,
    # then order the rows by their sum.
    points = np.zeros((1, 0), dtype=np.int64)
    for _ in range(num_parts):
        sums = points.sum(axis=1)
        blocks = []
        for value in range(total_cap + 1):
            keep = points[sums + value <= total_cap]
            column = np.full((keep.shape[0], 1), value, dtype=np.int64)
            blocks.append(np.hstack([keep, column]))
        points = np.vstack(blocks)
    sums = points.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    columns = np.ascontiguousarray(points[order].T, dtype=float)
    starts = np.concatenate(([0], np.cumsum(np.bincount(sums, minlength=total_cap + 1))))
    # Read-only: the cache shares these arrays between calls.
    columns.flags.writeable = False
    starts.flags.writeable = False
    return columns, starts


_cached_sorted_simplex = lru_cache(maxsize=4)(_build_sorted_simplex)


def _coordinate_subsets(num_parts: int) -> list[tuple[int, ...]]:
    """Coordinate subsets by size, then lexicographically (the sum's order)."""
    return list(
        chain.from_iterable(combinations(range(num_parts), size) for size in range(num_parts + 1))
    )


def _residual_kernel(
    coefficients: np.ndarray, beta: float, total_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise ``e^{-β·Σs} Σ_E c_E·Π_{j∈E} s_j`` for several coefficient rows.

    ``coefficients[r, e]`` is row ``r``'s coefficient of the ``e``-th subset of
    :func:`_coordinate_subsets`.  Returns each row's best value and the
    ``(total_cap + 1, rows)`` array of per-``k`` maxima of the inner sum
    (``-inf`` where no vector sums to ``k``).
    """
    num_rows, num_subsets = coefficients.shape
    num_parts = num_subsets.bit_length() - 1
    subsets = _coordinate_subsets(num_parts)
    columns, starts = _sorted_simplex(num_parts, total_cap)
    num_points = int(starts[-1])
    per_k = np.full((total_cap + 1, num_rows), -np.inf)
    for lo in range(0, num_points, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, num_points)
        objective = np.zeros((num_rows, hi - lo))
        # Subsets come by size, so each one's parent (itself minus its last
        # coordinate) is already there; zero terms are skipped, as x + 0 = x.
        monomials: dict[tuple[int, ...], np.ndarray | float] = {(): 1.0}
        for subset, column in zip(subsets, coefficients.T):
            if subset:
                monomials[subset] = monomials[subset[:-1]] * columns[subset[-1], lo:hi]
            if column.any():
                objective += column[:, None] * monomials[subset]
        # Rows are sorted by sum: the block holds sums k_lo..k_hi, each a
        # contiguous run starting at starts[k] (clipped to the block).
        k_lo = int(np.searchsorted(starts, lo, side="right")) - 1
        k_hi = int(np.searchsorted(starts, hi - 1, side="right")) - 1
        segments = np.maximum(starts[k_lo : k_hi + 1], lo) - lo
        block_max = np.maximum.reduceat(objective, segments, axis=1)
        np.maximum(per_k[k_lo : k_hi + 1], block_max.T, out=per_k[k_lo : k_hi + 1])
    # Rounding is monotone, so e^{-βk}·LŜ^k is bitwise the largest
    # e^{-βk}·objective over the rows summing to k.
    present = starts[1:] > starts[:-1]
    weights = np.exp(-beta * np.arange(total_cap + 1))
    best = (weights[present, None] * per_k[present]).max(axis=0)
    return best, per_k


def _coefficient_row(
    coefficients_by_subset: dict[frozenset[int], float],
    relation_indices: tuple[int, ...],
    excluded_index: int,
) -> list[float]:
    """Kernel coefficients for excluded relation ``i``: ``T_{O∖E}`` per subset ``E`` of ``O``."""
    others = [index for index in relation_indices if index != excluded_index]
    return [
        float(coefficients_by_subset[frozenset(others) - {others[p] for p in positions}])
        for positions in _coordinate_subsets(len(others))
    ]


def _per_k_dict(per_k: np.ndarray) -> dict[int, float]:
    return {k: float(value) for k, value in enumerate(per_k) if value != -np.inf}


def maximize_residual_objective(
    coefficients_by_subset: dict[frozenset[int], float],
    relation_indices: tuple[int, ...],
    excluded_index: int,
    beta: float,
    total_cap: int,
) -> tuple[float, dict[int, float]]:
    """Maximise ``e^{-β·Σs} Σ_E T_{O∖E}·Π_{j∈E}s_j`` over vectors with sum ≤ cap.

    ``O`` is ``relation_indices`` minus ``excluded_index``.  Returns the best
    value and the per-``k`` maxima of the inner sum (used by the profile).
    """
    row = _coefficient_row(coefficients_by_subset, relation_indices, excluded_index)
    best, per_k = _residual_kernel(np.array([row]), beta, total_cap)
    return float(best[0]), _per_k_dict(per_k[:, 0])


@dataclass(frozen=True)
class ResidualSensitivityProfile:
    """Diagnostic breakdown of a residual-sensitivity computation."""

    beta: float
    value: float
    maximizing_k: int
    ls_hat_by_k: dict[int, float]
    boundary_queries: dict[frozenset[int], int]
    cutoff: int
    certified: bool


def residual_sensitivity_profile(
    instance: Instance, beta: float, *, k_max: int | None = None
) -> ResidualSensitivityProfile:
    """Compute ``RS^β_count(I)`` together with its intermediate quantities."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    query = instance.query
    m = query.num_relations
    relation_indices = tuple(range(m))
    boundary_values = all_boundary_queries(instance)
    coefficients = {key: float(value) for key, value in boundary_values.items()}

    certified = k_max is None
    cutoff = k_max if k_max is not None else certified_cutoff(m, beta)

    rows = np.array(
        [_coefficient_row(coefficients, relation_indices, i) for i in relation_indices]
    )
    best, per_k = _residual_kernel(rows, beta, cutoff)
    best_value = max(0.0, float(best.max()))
    ls_hat_by_k = _per_k_dict(per_k.max(axis=1))

    maximizing_k = 0
    best_weighted = -1.0
    for k, inner in ls_hat_by_k.items():
        weighted = exp(-beta * k) * inner
        if weighted > best_weighted:
            best_weighted = weighted
            maximizing_k = k
    return ResidualSensitivityProfile(
        beta=beta,
        value=best_value,
        maximizing_k=maximizing_k,
        ls_hat_by_k=ls_hat_by_k,
        boundary_queries=boundary_values,
        cutoff=cutoff,
        certified=certified,
    )


def residual_sensitivity(instance: Instance, beta: float, *, k_max: int | None = None) -> float:
    """``RS^β_count(I)``.

    Always at least ``LS_count(I)`` (the ``k = 0`` term is exactly the local
    sensitivity) and β-smooth: on neighbouring instances the value changes by
    at most a factor ``e^β``.
    """
    return residual_sensitivity_profile(instance, beta, k_max=k_max).value
