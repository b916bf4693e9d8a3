"""Transition graph moves, connectivity, reductions, and walks."""

import time

import pytest

from chainpart.core import (
    BudgetError,
    InvalidSystemError,
    InvariantViolationError,
    Partition,
    binary_partition,
    make_system,
    validate,
    value,
)
from chainpart.enumeration import ResidueEnumerator
from chainpart.graph23 import (
    TransitionGraph,
    build_graph,
    connectivity_check,
    diameter_bound,
    forward_moves,
    neighbors,
    random_walk,
    reduce_to_binary,
)


def test_merge_move_u3(sys23):
    two_one = validate([2, 1], sys23)
    three = validate([3], sys23)
    assert three in neighbors(two_one)
    assert two_one in neighbors(three)


def test_g27_shape(sys23):
    graph = build_graph(27, sys23)
    assert len(graph.vertices) == 7
    assert graph.is_connected()
    connected, diameter = connectivity_check(27, sys23)
    assert connected and diameter <= diameter_bound(27)


def test_build_graph_checks_the_budget_before_building_members(sys23):
    # W(10^30 + 7) is about 4.2e12: the budget check reads it from the sweep
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        build_graph(10**30 + 7, sys23, ResidueEnumerator(sys23, 1000))
    assert time.perf_counter() - start < 1.0


def test_binary_vertex_has_neighbors(sys23):
    assert neighbors(validate([16, 8, 2, 1], sys23))


def test_requires_base_pair_23(sys25):
    with pytest.raises(InvalidSystemError):
        build_graph(10, sys25)


def test_candidate_split_that_breaks_chain_is_not_a_move(sys23):
    # splitting 12 out of {12, 4} would give {9, 4, 3}, which is no chain
    pt = validate([12, 4], sys23)
    nbrs = neighbors(pt)
    assert validate([16], sys23) in nbrs
    assert validate([12, 3, 1], sys23) in nbrs
    for w in nbrs:
        assert value(w, sys23) == 16


def test_symmetry_closure_connectivity_small(sys23):
    en = ResidueEnumerator(sys23)
    for u in range(1, 260):
        members = en.omega(u)
        adjacency = {v: neighbors(v) for v in members}
        for v, nbrs in adjacency.items():
            for w in nbrs:
                assert w in members
                assert v in adjacency[w]
        graph = build_graph(u, sys23, en)
        assert graph.is_connected()
        assert graph.diameter() <= diameter_bound(u)


def test_diameter_equals_largest_bfs_distance(sys23):
    en = ResidueEnumerator(sys23)
    for u in list(range(1, 1001)) + [99000]:
        graph = build_graph(u, sys23, en)
        farthest = max(max(graph.bfs_layers(v).values()) for v in graph.vertices)
        assert graph.diameter() == farthest, u


def test_diameter_refuses_a_disconnected_graph(sys23):
    graph = build_graph(19, sys23)
    cut = TransitionGraph(19, graph.vertices, {v: frozenset() for v in graph.vertices})
    with pytest.raises(InvariantViolationError, match="not connected"):
        cut.diameter()


def test_reduce_to_binary_paths(sys23):
    assert reduce_to_binary(binary_partition(27), sys23) == []
    path = reduce_to_binary(validate([27], sys23), sys23)
    assert path[-1] == binary_partition(27)
    assert len(path) <= diameter_bound(27)
    path19 = reduce_to_binary(validate([18, 1], sys23), sys23)
    assert path19[-1] == binary_partition(19)
    assert len(path19) <= diameter_bound(19)


def test_reduce_steps_are_graph_moves(sys23):
    en = ResidueEnumerator(sys23)
    for u in (19, 27, 57, 81, 100):
        for pt in en.omega(u):
            here = pt
            for step in reduce_to_binary(pt, sys23):
                assert here in forward_moves(step)
                here = step
            assert here == binary_partition(u)


def test_random_walk(sys23):
    start = binary_partition(27)
    assert random_walk(27, 0, sys23, 5) == start
    assert random_walk(5, 50, sys23, 5) == validate([4, 1], sys23)
    visited = set()
    import random as _random

    rng = _random.Random(2)
    pt = start
    for _ in range(400):
        pt = random_walk(27, 1, sys23, rng, start=pt)
        visited.add(pt)
    assert len(visited) == 7  # connectivity: a long walk sees every vertex


def test_walk_deterministic(sys23):
    a = random_walk(81, 40, sys23, 11)
    b = random_walk(81, 40, sys23, 11)
    assert a == b
