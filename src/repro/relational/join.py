"""Natural join evaluation over annotated relations.

All of the operations here are exact and vectorised: the join result of the
paper is a frequency function ``Join_I : D -> Z>=0`` over the joint domain
``D = dom(x)``, which maps directly onto a dense numpy array with one axis per
query attribute.  Aggregates such as the join size or grouped join sizes are
einsum contractions of the per-relation arrays (:func:`contract`), which never
allocate the joint array.  An unoptimised multi-operand einsum still *walks*
the joint index space, one cell at a time; :func:`contract` follows numpy's
greedy pairwise contraction path instead, so relations are summed down to
their shared attributes before they meet.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance

#: einsum index alphabet; data complexity assumption: constant-size queries.
_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _letters_for(query: JoinQuery) -> dict[str, str]:
    names = query.attribute_names
    if len(names) > len(_EINSUM_LETTERS):
        raise ValueError(
            f"queries with more than {len(_EINSUM_LETTERS)} attributes are not supported"
        )
    return {name: _EINSUM_LETTERS[axis] for axis, name in enumerate(names)}


def contract(subscript: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscript, *operands)`` along numpy's greedy contraction path.

    The path depends only on the subscript and the operand shapes, so it is
    computed once per such key and kept in a bounded LRU cache; values are
    never cached.  A single operand has nothing to order, and the plain einsum is
    faster than the path machinery there.  Integer-valued operands give
    bitwise the plain einsum's result (every partial sum is exact); other
    float operands agree to rounding.
    """
    if len(operands) == 1:
        return np.einsum(subscript, operands[0])
    path = _greedy_path(subscript, tuple(operand.shape for operand in operands))
    return np.einsum(subscript, *operands, optimize=path)


@lru_cache(maxsize=256)
def _greedy_path(subscript: str, shapes: tuple[tuple[int, ...], ...]) -> tuple:
    # einsum_path reads only shapes: zero-stride stand-ins allocate nothing.
    # A tuple, so no caller can alter the path the cache hands out.
    stand_ins = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
    return tuple(np.einsum_path(subscript, *stand_ins, optimize="greedy")[0])


def joint_domain_size(query: JoinQuery) -> int:
    """``|D|``: the size of the joint domain of all query attributes."""
    return query.joint_domain_size


def expand_to_joint(query: JoinQuery, array: np.ndarray, attribute_names: Sequence[str]) -> np.ndarray:
    """Reshape an array over a subset of attributes so it broadcasts over ``D``.

    The returned view has one axis per query attribute; axes not in
    ``attribute_names`` have extent 1.
    """
    if array.ndim != len(attribute_names):
        raise ValueError(
            f"array has {array.ndim} axes but {len(attribute_names)} attribute names given"
        )
    source_axes = [query.axis_of(name) for name in attribute_names]
    order = np.argsort(source_axes)
    transposed = np.transpose(array, order) if array.ndim > 1 else array
    shape = [1] * len(query.attribute_names)
    for position in order:
        shape[source_axes[position]] = array.shape[position]
    return transposed.reshape(shape)


def join_result(instance: Instance, dtype: np.dtype | type = np.int64) -> np.ndarray:
    """Materialise ``Join_I`` as a dense array over the joint domain.

    Memory is ``prod_x |dom(x)|`` entries; intended for the moderate domain
    sizes used by the synthetic-data algorithms and experiments.
    """
    query = instance.query
    result = np.ones(query.shape, dtype=dtype)
    for relation in instance.relations:
        expanded = expand_to_joint(query, relation.frequencies, relation.attribute_names)
        result = result * expanded.astype(dtype)
    return result


def join_size(instance: Instance) -> int:
    """``count(I)``: the join size, computed without materialising the join."""
    return int(grouped_join_size(instance, range(instance.num_relations), ()))


def grouped_join_size(
    instance: Instance,
    relation_subset: Iterable[int],
    group_by: Sequence[str],
) -> np.ndarray | int:
    """Join sizes of the relations in ``relation_subset`` grouped by attributes.

    Returns an array over the ``group_by`` attributes (in the given order)
    whose entries are the join sizes of the sub-join restricted to each value
    combination; with an empty ``group_by`` the scalar total join size of the
    sub-join is returned.  This is the workhorse behind boundary queries
    ``T_E`` and join-value degrees.
    """
    query = instance.query
    subset = sorted(set(relation_subset))
    if not subset:
        return 1 if not group_by else np.ones(
            tuple(query.attribute(name).domain.size for name in group_by), dtype=np.int64
        )
    letters = _letters_for(query)
    operands = []
    input_terms = []
    for index in subset:
        relation = instance.relations[index]
        operands.append(np.asarray(relation.frequencies, dtype=np.int64))
        input_terms.append("".join(letters[name] for name in relation.attribute_names))
    output_term = "".join(letters[name] for name in group_by)
    subscript = ",".join(input_terms) + "->" + output_term
    result = contract(subscript, *operands)
    if not group_by:
        return int(result)
    return result


def semijoin_reduce(instance: Instance) -> Instance:
    """Remove dangling tuples: zero out records that join with nothing.

    For every relation ``R_i``, a record survives only if the join size of the
    full query restricted to that record's values is positive.  The reduced
    instance has the same join result as the input (useful for tests and for
    shrinking instances before expensive computations).
    """
    joint = join_result(instance, dtype=np.int64)
    query = instance.query
    reduced = []
    for relation in instance.relations:
        axes_to_keep = [query.axis_of(name) for name in relation.attribute_names]
        axes_to_drop = tuple(
            axis for axis in range(len(query.attribute_names)) if axis not in axes_to_keep
        )
        support = joint.sum(axis=axes_to_drop) if axes_to_drop else joint
        kept_in_joint_order = [a for a in range(len(query.attribute_names)) if a in axes_to_keep]
        permutation = [kept_in_joint_order.index(query.axis_of(name)) for name in relation.attribute_names]
        if support.ndim > 1:
            support = np.transpose(support, permutation)
        mask = support > 0
        reduced.append(relation.with_frequencies(relation.frequencies * mask))
    return Instance(query, reduced)


def materialized_join_tuples(instance: Instance) -> list[tuple[tuple, int]]:
    """List the join result as ``(joint value tuple, multiplicity)`` pairs."""
    joint = join_result(instance)
    query = instance.query
    results = []
    for flat_index in np.flatnonzero(joint):
        index = np.unravel_index(flat_index, joint.shape)
        values = tuple(
            attribute.domain.value_at(i) for attribute, i in zip(query.attributes, index)
        )
        results.append((values, int(joint[index])))
    return results


def join_size_brute_force(instance: Instance) -> int:
    """Reference join-size computation by explicit tuple enumeration.

    Quadratic-ish and only suitable for tiny instances; used by tests to
    validate the einsum implementation.
    """
    query = instance.query
    total = 0
    tuple_lists = [list(relation.tuples()) for relation in instance.relations]

    def compatible(assignment: dict[str, object], values: tuple, names: Sequence[str]) -> bool:
        return all(
            assignment.get(name, value) == value for name, value in zip(names, values)
        )

    def recurse(position: int, assignment: dict[str, object], weight: int) -> None:
        nonlocal total
        if position == len(tuple_lists):
            total += weight
            return
        names = instance.relations[position].attribute_names
        for values, multiplicity in tuple_lists[position]:
            if compatible(assignment, values, names):
                extended = dict(assignment)
                extended.update(zip(names, values))
                recurse(position + 1, extended, weight * multiplicity)

    recurse(0, {}, 1)
    return total
