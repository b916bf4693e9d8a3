"""Transition graph moves, connectivity, reductions, and walks.

``replay_neighbors`` is the rule ``neighbors`` had before it checked each
inverse in O(1): generate every partition shaped like a move's preimage,
re-sort it, and keep it when its own forward moves (recomputed by the
set-based ``replay_forward_moves``) lead back.  It is kept here as the oracle
for ``forward_moves``, ``neighbors`` and the forward-edge ``build_graph``.
``bfs_layers`` and ``edges`` are the plain breadth-first search and edge set,
on vertex indices, that ``diameter`` and ``edge_count`` are checked against.
"""

import random
import time
from collections import deque

import pytest

from chainpart import graph23
from chainpart.core import (
    BudgetError,
    ChainBreakError,
    DuplicatePartError,
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
    diameter_bound,
    forward_moves,
    neighbors,
    random_walk,
    reduce_to_binary,
)


def _sorted_chain(pairs):
    """The chain of these exponent pairs, or None when they form none."""
    items = sorted(pairs, key=lambda ab: (ab[0] + ab[1], ab[0]), reverse=True)
    for (a1, b1), (a2, b2) in zip(items, items[1:]):
        if (a1, b1) == (a2, b2) or a2 > a1 or b2 > b1:
            return None
    return Partition(tuple(items))


def replay_forward_moves(pt):
    parts = set(pt.parts)
    levels = {}
    for a, b in parts:
        levels.setdefault(b, set()).add(a)
    out = set()
    for b, exps in levels.items():
        a = max(exps)
        if a - 1 in exps:
            merged = _sorted_chain(parts - {(a, b), (a - 1, b)} | {(a - 1, b + 1)})
            if merged is not None:
                out.add(merged)
            continue
        run = []
        i = a - 2
        while i in exps:
            run.append(i)
            i -= 1
        c = a - 2 if not run else run[-1] - 1
        if c < 0 or any(x == c + 1 and d < b for x, d in parts):
            continue
        cand = parts - {(a, b)} - {(x, b) for x in run}
        cand |= {(x, b + 1) for x in run} | {(c, b), (c, b + 1)}
        split = _sorted_chain(cand)
        if split is not None:
            out.add(split)
    return out


def replay_inverse_candidates(pt):
    parts = set(pt.parts)
    cands = set()
    for alpha, beta in parts:
        if beta >= 1:
            pair = {(alpha + 1, beta - 1), (alpha, beta - 1)}
            if not (pair & parts):
                cand = _sorted_chain(parts - {(alpha, beta)} | pair)
                if cand is not None:
                    cands.add(cand)
    for c, b in parts:
        if (c, b + 1) not in parts:
            continue
        run = []
        j = c + 1
        while (j, b + 1) in parts:
            run.append(j)
            j += 1
        rest = parts - {(c, b), (c, b + 1)} - {(x, b + 1) for x in run}
        added = {(x, b) for x in run} | {(c + len(run) + 2, b)}
        if added & rest:
            continue
        cand = _sorted_chain(rest | added)
        if cand is not None:
            cands.add(cand)
    return cands


def bfs_layers(graph, start):
    """The BFS distance of every vertex index reachable from the index ``start``."""
    dist = {start: 0}
    queue = deque((start,))
    while queue:
        v = queue.popleft()
        for w in graph.nbrs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def edges(graph):
    """The edge set, each edge an unordered pair of vertex indices."""
    return {frozenset((i, j)) for i, js in enumerate(graph.nbrs) for j in js}


def replay_neighbors(pt):
    out = replay_forward_moves(pt)
    for cand in replay_inverse_candidates(pt):
        if pt in replay_forward_moves(cand):
            out.add(cand)
    out.discard(pt)
    return frozenset(out)


def test_moves_equal_replay_on_every_vertex_to_2000(sys23):
    en = ResidueEnumerator(sys23)
    for u in range(1, 2001):
        for v in en.omega(u):
            assert forward_moves(v) == replay_forward_moves(v), v
            assert neighbors(v) == replay_neighbors(v), v


def test_neighbors_equal_replay_on_seeded_walks_near_a_million(sys23):
    for u, seed in ((10**6 + 7, 1), (999_999, 2), (1_048_577, 3)):
        rng = random.Random(seed)
        pt = binary_partition(u)
        for _ in range(1000):
            nbrs = neighbors(pt)
            assert nbrs == replay_neighbors(pt), pt
            pt = sorted(nbrs, key=lambda w: w.parts)[rng.randrange(len(nbrs))]


def test_build_graph_adjacency_equals_neighbors_to_2000(sys23):
    for u in range(1, 2001):
        graph = build_graph(u, sys23)
        vertices = graph.vertices
        assert vertices == tuple(sorted(set(vertices))), u
        for v, js in zip(vertices, graph.nbrs):
            assert js == tuple(sorted(set(js))), v
            assert {vertices[j] for j in js} == neighbors(v), v
        assert graph.edge_count == len(edges(graph)), u


def test_merge_move_u3(sys23):
    two_one = validate([2, 1], sys23)
    three = validate([3], sys23)
    assert three in neighbors(two_one)
    assert two_one in neighbors(three)


def test_g27_shape(sys23):
    graph = build_graph(27, sys23)
    assert len(graph.vertices) == 7
    assert len(bfs_layers(graph, 0)) == 7
    assert graph.diameter() <= diameter_bound(27)


def test_build_graph_checks_the_budget_before_building_members(sys23):
    # W(10^30 + 7) = 4,225,744,633,076, over the default budget of 2,000,000:
    # the budget check reads it from the sweep
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        build_graph(10**30 + 7, sys23)
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
    for u in range(1, 260):
        graph = build_graph(u, sys23)
        members = set(graph.vertices)
        linked = {v: neighbors(v) for v in members}
        for v, nbrs in linked.items():
            for w in nbrs:
                assert w in members
                assert v in linked[w]
        assert len(bfs_layers(graph, 0)) == len(members)
        assert graph.diameter() <= diameter_bound(u)


def test_diameter_equals_largest_bfs_distance(sys23):
    for u in list(range(1, 2001)) + [99000]:
        graph = build_graph(u, sys23)
        farthest = max(max(graph23._bfs(graph.nbrs, i)[0]) for i in range(len(graph.nbrs)))
        assert graph.diameter() == farthest, u


def test_diameter_refuses_a_disconnected_graph(sys23):
    graph = build_graph(19, sys23)
    cut = TransitionGraph(19, graph.vertices, ((),) * len(graph.vertices))
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


def test_reduce_to_binary_refuses_a_top_level_without_an_inverse(sys23, monkeypatch):
    # 3 before 6 is no chain, so the input check refuses it before any move
    with pytest.raises(ChainBreakError):
        reduce_to_binary(Partition(((0, 1), (1, 1))), sys23)
    # a chain at whose top level no inverse applies reaches the guard
    monkeypatch.setattr(graph23, "_inverses", lambda pt: iter(()))
    with pytest.raises(InvariantViolationError, match="no inverse move"):
        reduce_to_binary(validate([18, 1], sys23), sys23)


@pytest.mark.parametrize("pairs,error", [(((0, 1), (1, 0)), ChainBreakError),
                                         (((1, 0), (1, 0)), DuplicatePartError)])
def test_reduce_and_walk_refuse_a_non_chain(sys23, pairs, error):
    pt = Partition(pairs)
    with pytest.raises(error):
        reduce_to_binary(pt, sys23)
    with pytest.raises(error):
        random_walk(value(pt, sys23), 1, sys23, 0, start=pt)


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


def test_graph_refusals_and_the_empty_graph(sys23):
    with pytest.raises(ValueError, match="does not sum to u"):
        random_walk(5, 3, sys23, 1, start=Partition(((1, 1),)))
    assert build_graph(-1, sys23).diameter() == 0
