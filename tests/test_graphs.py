import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaspec import (Graph, GraphFormatError, ParameterError, complete, complete_bipartite,
                       complete_multipartite, components, cycle,
                       disjoint_union, edgeless, format_edge_list,
                       is_connected, join, parse_edge_list, path, split, star,
                       turan)
from alphaspec.graphs import (GraphSpec, build, component_labels, edge_order,
                              pairs_mask, turan_part_sizes, walk2_counts)


def test_graph_normalizes_and_validates():
    g = Graph(4, ((3, 1), (0, 2)))
    assert g.edges == ((0, 2), (1, 3))
    assert g.m == 2
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))
    with pytest.raises(ValueError):
        Graph(4, ((0, 2), (2, 0)))
    with pytest.raises(ValueError):
        Graph(-1, ())


@pytest.mark.parametrize("n,edges", [
    (3, ((0.5, 2),)),  # a float endpoint passed the range test before
    (3, ((0, 1, 2),)),
    (3, ((0,),)),
    (3, (5,)),
    (3, ((0, "1"),)),
    (3.0, ()),
    ("3", ()),
    (3, None),
    (3, 5),
])
def test_graph_rejects_non_integer_input(n, edges):
    with pytest.raises(ParameterError):
        Graph(n, edges)


def test_graph_stores_numpy_integers_as_ints():
    g = Graph(np.int64(3), ((np.int32(2), np.int64(0)),))
    assert g == Graph(3, ((0, 2),))
    assert type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)
    assert g.degrees == (1, 0, 1)


def test_degrees_and_neighbors():
    g = star(5)
    assert g.degrees == (4, 1, 1, 1, 1)
    assert g.neighbors[0] == (1, 2, 3, 4)
    assert g.max_degree() == 4 and g.min_degree() == 1
    assert not g.is_regular()
    assert cycle(5).is_regular()


def test_edge_mask_roundtrip():
    g = Graph(5, ((0, 1), (2, 4), (3, 4)))
    assert Graph.from_edge_mask(5, g.edge_mask()) == g
    # bit i corresponds to the i-th pair in lexicographic order
    pairs = edge_order(5)
    assert pairs[0] == (0, 1)
    assert Graph.from_edge_mask(5, 1).edges == ((0, 1),)


def test_family_constructors():
    assert complete(4).m == 6
    assert edgeless(4).m == 0
    assert complete_bipartite(2, 3).m == 6
    assert star(6) == complete_bipartite(1, 5)
    assert cycle(3) == complete(3)
    assert path(2) == complete(2)
    assert cycle(2) == complete(2)
    assert turan_part_sizes(7, 3) == (3, 2, 2)
    assert turan(7, 3) == complete_multipartite([3, 2, 2])
    # split graph: clique joined to an independent set
    s = split(6, 2)
    assert s.m == 1 + 2 * 4
    assert sorted(s.degrees, reverse=True) == [5, 5, 2, 2, 2, 2]


def test_graphspec_dispatch():
    g = build(GraphSpec("complete_bipartite", (2, 2)))
    assert g == complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        GraphSpec("mystery", (3,))


def test_union_join_components():
    g = disjoint_union([complete(3), path(3)])
    assert g.n == 6 and g.m == 5
    comps = components(g)
    assert [c.n for c, _ in comps] == [3, 3]
    assert comps[0][1] == (0, 1, 2)
    assert not is_connected(g)
    j = join(edgeless(2), edgeless(3))
    assert j == complete_bipartite(2, 3)


def _components_by_search(g):
    """The earlier components: one search per root, then each component's
    edges picked out of the whole edge list and relabeled."""
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        verts = []
        while stack:
            u = stack.pop()
            verts.append(u)
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        verts.sort()
        relabel = {v: i for i, v in enumerate(verts)}
        sub_edges = tuple((relabel[u], relabel[v]) for u, v in g.edges
                          if u in relabel and v in relabel)
        out.append((Graph(len(verts), sub_edges), tuple(verts)))
    return out


@pytest.mark.parametrize("n", range(7))
def test_components_match_search_oracle(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        g = Graph.from_edge_mask(n, mask)
        want = _components_by_search(g)
        assert components(g) == want
        assert is_connected(g) == (len(want) <= 1)
        label = component_labels(g)
        assert [tuple(v for v in range(n) if label[v] == c)
                for c in range(len(want))] == [vs for _, vs in want]


def test_walk2_counts():
    g = path(4)
    # sums of neighbor degrees
    assert walk2_counts(g) == (2, 3, 3, 2)


def test_parse_and_format_roundtrip():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert parse_edge_list(format_edge_list(g)) == g
    text = "# comment\n 4 2 # trailing\n0 1\n\n2 3\n"
    assert parse_edge_list(text).edges == ((0, 1), (2, 3))


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = edge_order(n)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, k in zip(pairs, keep) if k))


@settings(max_examples=100, deadline=None)
@given(g=labeled_graphs())
def test_parse_format_roundtrip_property(g):
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back == g
    assert format_edge_list(back) == text


@pytest.mark.parametrize("text,fragment", [
    ("", "header"),
    ("3\n", "header"),
    ("3 1\n", "expected 1 edge"),
    ("3 1\n0 1\n1 2\n", "found 2"),
    ("3 1\n0 x\n", "line 2"),
    ("2 1\n0 5\n", "out of range"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def _index_dict_mask(n, pairs):
    """The edge_order(n) bit positions looked up in a {pair: index} dict."""
    index = {pair: i for i, pair in enumerate(edge_order(n))}
    mask = 0
    for pair in pairs:
        mask |= 1 << index[pair]
    return mask


def test_pairs_mask_matches_index_dict():
    for n in range(13):
        order = edge_order(n)
        for pair in order:
            assert pairs_mask(n, [pair]) == 1 << order.index(pair), (n, pair)
        for step in (1, 2, 3, 7):
            some = order[::step]
            assert pairs_mask(n, some) == _index_dict_mask(n, some), (n, step)
    assert pairs_mask(5, []) == 0


def test_edge_mask_matches_index_dict_on_random_graphs(rng):
    for _ in range(100):
        n = int(rng.integers(0, 13))
        g = Graph(n, tuple(p for p in edge_order(n) if rng.random() < 0.4))
        assert g.edge_mask() == _index_dict_mask(n, g.edges)
        assert Graph.from_edge_mask(n, g.edge_mask()) == g
