import itertools

import numpy as np
import pytest

from alphaspec import extremal

from alphaspec import (CapacityError, Graph, chromatic_number, complete,
                       complete_bipartite, cycle, diameter, disjoint_union,
                       enumerate_graphs, is_clique_free, max_clique_size,
                       maxcut, path, star, vertex_orbits)
from alphaspec.combinatorics import are_isomorphic, integer_partitions
from conftest import rand_graph


def brute_has_clique(g: Graph, k: int) -> bool:
    for combo in itertools.combinations(range(g.n), k):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def test_clique_detection_matches_brute_force(rng):
    for _ in range(120):
        n = int(rng.integers(1, 8))
        mask = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
        g = Graph.from_edge_mask(n, mask)
        for k in range(2, n + 1):
            assert is_clique_free(g, k) == (not brute_has_clique(g, k))


def test_max_clique_known_values():
    assert max_clique_size(complete(6)) == 6
    assert max_clique_size(cycle(5)) == 2
    assert max_clique_size(complete_bipartite(3, 3)) == 2
    assert max_clique_size(Graph(1, ())) == 1
    assert max_clique_size(Graph(3, ())) == 1


def test_triangle_free_count_n4():
    # 41 of the 64 labeled graphs on 4 vertices are triangle-free
    found = sum(1 for _ in enumerate_graphs(4, predicate=lambda g: is_clique_free(g, 3)))
    oracle = sum(
        1 for mask in range(64)
        if not brute_has_clique(Graph.from_edge_mask(4, mask), 3))
    assert found == oracle == 41


def test_enumeration_capacity_and_order():
    with pytest.raises(CapacityError):
        list(enumerate_graphs(9))
    first = list(itertools.islice(enumerate_graphs(3), 3))
    assert [g.edge_mask() for g in first] == [0, 1, 2]


def test_chromatic_number_known_values():
    assert chromatic_number(Graph(4, ())) == 1
    assert chromatic_number(complete(5)) == 5
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(cycle(7)) == 3
    assert chromatic_number(complete_bipartite(4, 4)) == 2
    # wheel: odd cycle plus a dominating hub
    hub = Graph(6, tuple((i, (i + 1) % 5) for i in range(5)) + tuple((i, 5) for i in range(5)))
    assert chromatic_number(hub) == 4


def test_maxcut_known_values(rng):
    assert maxcut(complete(4)) == 4
    assert maxcut(complete(5)) == 6
    assert maxcut(cycle(5)) == 4
    assert maxcut(complete_bipartite(3, 4)) == 12
    assert maxcut(Graph(3, ())) == 0
    # brute oracle on random graphs
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = Graph.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        best = 0
        for assign in itertools.product((0, 1), repeat=n):
            best = max(best, sum(1 for u, v in g.edges if assign[u] != assign[v]))
        assert maxcut(g) == best


def _edge_pass_maxcut(g):
    """One pass per edge over every side of the first n - 1 vertices: the
    per-edge evaluation the popcount form replaced."""
    if g.n <= 1 or g.m == 0:
        return 0
    masks = np.arange(1 << (g.n - 1), dtype=np.int64)
    cuts = np.zeros(masks.shape, dtype=np.int32)
    for u, v in g.edges:
        cuts += ((masks >> u ^ masks >> v) & 1).astype(np.int32)
    return int(cuts.max())


def test_maxcut_matches_edge_pass_oracle():
    for n in range(6):  # every labeled graph on n <= 5 vertices
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            assert maxcut(g) == _edge_pass_maxcut(g), (n, mask)
    rng = np.random.default_rng(20261019)
    for n in (6, 10, 12, 14):
        for _ in range(8):
            g = rand_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            assert maxcut(g) == _edge_pass_maxcut(g), (n, g.edges)


def test_diameter():
    assert diameter(path(5)) == 4
    assert diameter(cycle(6)) == 3
    assert diameter(complete(4)) == 1
    assert diameter(Graph(1, ())) == 0
    assert diameter(disjoint_union([complete(2), complete(2)])) is None


def _bfs_diameter(g):
    """Largest BFS eccentricity, or None when g is disconnected (n >= 2)."""
    if g.n <= 1:
        return 0
    far = 0
    for src in range(g.n):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for w in g.neighbors[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < g.n:
            return None
        far = max(far, max(dist.values()))
    return far


def test_diameter_matches_bfs_on_every_small_graph():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            assert diameter(g) == _bfs_diameter(g), (n, mask)


def test_diameter_matches_bfs_on_random_graphs(rng):
    seen = set()
    for n in (6, 10, 20, 40, 80, 120):
        for p in (0.02, 0.05, 0.15, 0.5):
            g = rand_graph(rng, n, p)
            want = _bfs_diameter(g)
            assert diameter(g) == want, (n, p)
            seen.add(want is None)
    assert diameter(path(120)) == 119
    assert seen == {True, False}


def test_diameter_matches_bfs_on_long_thin_graphs():
    for g in (path(400), cycle(401), disjoint_union([path(200), cycle(7)])):
        assert diameter(g) == _bfs_diameter(g), g.n


def test_vertex_orbits():
    assert vertex_orbits(cycle(6)) == ((0, 1, 2, 3, 4, 5),)
    assert vertex_orbits(star(4)) == ((0,), (1, 2, 3))
    assert vertex_orbits(path(4)) == ((0, 3), (1, 2))


def test_are_isomorphic():
    assert are_isomorphic(cycle(3), complete(3))
    assert are_isomorphic(Graph(4, ((0, 1), (1, 2), (2, 3))),
                          Graph(4, ((2, 0), (0, 3), (3, 1))))
    assert not are_isomorphic(path(4), star(4))
    assert not are_isomorphic(complete(3), Graph(3, ((0, 1), (1, 2))))


# ---------------------------------------------------------------- oracle
# Brute force over all n! relabelings: perms[i] maps vertex v to perms[i][v],
# and relabeled[j, i] is the edge mask of masks[j] under perms[i].

def _relabelings(n, masks):
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    shifts = np.array([[index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
                       for perm in perms.tolist()], dtype=np.int64).reshape(len(perms), -1)
    bits = (np.asarray(masks, dtype=np.int64)[:, np.newaxis] >> np.arange(len(pairs))) & 1
    relabeled = bits.astype(np.float64) @ (2.0 ** shifts).T  # exact below 2**53
    return perms, relabeled.astype(np.int64)


def _brute_orbits(n, mask, perms, relabeled_row):
    autos = perms[relabeled_row == mask]
    orbits = {tuple(sorted(set(autos[:, v].tolist()))) for v in range(n)}
    return tuple(sorted(orbits))


@pytest.mark.parametrize("n", range(0, 6))
def test_vertex_orbits_match_all_relabelings(n):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    perms, relabeled = _relabelings(n, masks)
    for mask, row in zip(masks.tolist(), relabeled):
        g = Graph.from_edge_mask(n, mask)
        assert vertex_orbits(g) == _brute_orbits(n, mask, perms, row), mask


def _assert_iso_matches_canonical(n, pairs):
    masks = sorted({m for pair in pairs for m in pair})
    _, relabeled = _relabelings(n, masks)
    canon = dict(zip(masks, relabeled.min(axis=1).tolist()))
    graphs = {m: Graph.from_edge_mask(n, m) for m in masks}
    for a, b in pairs:
        assert are_isomorphic(graphs[a], graphs[b]) == (canon[a] == canon[b]), (n, a, b)


@pytest.mark.parametrize("n", range(1, 6))
def test_are_isomorphic_matches_canonical_all_pairs(n):
    masks = range(1 << (n * (n - 1) // 2))
    pairs = [(a, b) for a in masks for b in masks
             if bin(a).count("1") == bin(b).count("1")]
    _assert_iso_matches_canonical(n, pairs)


def _swap_edges(rng, g, tries=4):
    """g after a few degree-preserving swaps ab, cd -> ad, cb."""
    edges = set(g.edges)
    for _ in range(tries):
        es = sorted(edges)
        i, j = rng.choice(len(es), 2, replace=False)
        (a, b), (c, d) = es[i], es[j]
        new = (tuple(sorted((a, d))), tuple(sorted((c, b))))
        if len({a, b, c, d}) == 4 and not edges & set(new):
            edges = (edges - {(a, b), (c, d)}) | set(new)
    return Graph(g.n, tuple(edges))


@pytest.mark.parametrize("n", [6, 7])
def test_are_isomorphic_matches_canonical_sample(n):
    # each graph against a relabeling of itself and against a graph with the
    # same degrees, which the degree filter alone cannot tell apart
    rng = np.random.default_rng(n)
    pairs = []
    for _ in range(150):
        g = Graph.from_edge_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        perm = rng.permutation(n)
        h = Graph(n, tuple((int(perm[u]), int(perm[v])) for u, v in g.edges))
        pairs.append((g.edge_mask(), h.edge_mask()))
        if g.m >= 2:
            pairs.append((g.edge_mask(), _swap_edges(rng, h).edge_mask()))
    _assert_iso_matches_canonical(n, pairs)


def test_dedupe_keeps_relabelings_together():
    # two labelings of one graph whose computed spectra at this alpha differ
    # after rounding to 8 decimals: only an exact test keeps them together
    g = Graph(6, ((0, 1), (0, 2), (0, 3), (2, 4), (3, 4), (4, 5)))
    perm = [5, 4, 3, 0, 1, 2]
    h = Graph(6, tuple((perm[u], perm[v]) for u, v in g.edges))
    assert are_isomorphic(g, h)
    g_mask, h_mask, p_mask = g.edge_mask(), h.edge_mask(), path(6).edge_mask()
    assert extremal._dedupe_isomorphic([g_mask, h_mask], 6) == [g_mask]
    res = extremal.maximize_over_class(6, 5, 0.07548770249999999, "clique_free")
    assert len(res.maximizer_reps) == 1
    assert extremal._dedupe_isomorphic([h_mask, p_mask, g_mask], 6) == [h_mask, p_mask]


def test_integer_partitions():
    parts = list(integer_partitions(5, 2))
    assert sorted(parts) == [(3, 2), (4, 1), (5,)]
    assert sorted(integer_partitions(4, 4)) == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
