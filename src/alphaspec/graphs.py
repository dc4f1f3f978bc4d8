"""Undirected labeled graphs: the core type, named constructors, and edge-list text I/O.

Vertices are 0..n-1. Edges are stored normalized as (u, v) with u < v, sorted
lexicographically, so equal graphs compare equal and iteration order is
deterministic everywhere downstream.
"""

import functools
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphFormatError, ParameterError

GRAPH_FAMILIES = (
    "complete",
    "complete_bipartite",
    "star",
    "turan",
    "split",
    "complete_multipartite",
    "cycle",
    "path",
)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on vertices 0..n-1 with no loops or multi-edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError as exc:
            raise ParameterError(f"vertex count {self.n!r} is not an integer") from exc
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        object.__setattr__(self, "n", n)
        try:
            edges = tuple(self.edges)
        except TypeError as exc:
            raise ParameterError(f"edges {self.edges!r} is not a collection of pairs") from exc
        seen = set()
        norm = []
        for e in edges:
            try:
                u, v = e
                u, v = operator.index(u), operator.index(v)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"edge {e!r} is not a pair of integer vertices") from exc
            if u == v:
                raise ParameterError(f"self loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise ParameterError(f"edge {e!r} out of range for n={n}")
            if (u, v) in seen:
                raise ParameterError(f"duplicate edge {(u, v)!r}")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (int), for fast set intersections."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix: a read-only float64 (n, n) array, built once."""
        adj = np.zeros((self.n, self.n))
        ends = itertools.chain.from_iterable(self.edges)
        us, vs = np.fromiter(ends, dtype=np.intp, count=2 * self.m).reshape(-1, 2).T
        adj[us, vs] = adj[vs, us] = 1.0
        adj.setflags(write=False)
        return adj

    @cached_property
    def _memo(self) -> dict:
        """Values other modules derive from this graph once (see bounds). They
        belong to this instance: an equal graph built separately starts empty."""
        return {}

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def is_regular(self) -> bool:
        return self.n == 0 or self.min_degree() == self.max_degree()

    def edge_mask(self) -> int:
        """Pack the edge set into the canonical bitmask (see edge_order)."""
        return pairs_mask(self.n, self.edges)

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        order = edge_order(n)
        if mask < 0 or mask >= 1 << len(order):
            raise ParameterError(f"edge mask {mask} out of range for n={n}")
        edges = tuple(order[i] for i in range(len(order)) if mask >> i & 1)
        return cls(n, edges)


@functools.cache
def edge_order(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical bit order for edge masks: (0,1),(0,2),...,(n-2,n-1)."""
    return tuple(itertools.combinations(range(n), 2))


def pairs_mask(n: int, pairs) -> int:
    """Edge bitmask of the normalized pairs (u, v), u < v, in edge_order(n)
    bit order: the pairs before (u, v) are the u*(2n-u-1)/2 with a smaller
    first vertex, then the v-u-1 of (u, u+1), ..., (u, v-1)."""
    mask = 0
    for u, v in pairs:
        mask |= 1 << (u * (2 * n - u - 1) // 2 + v - u - 1)
    return mask


def _require(cond: bool, constraint: str):
    if not cond:
        raise ParameterError(constraint)


@dataclass(frozen=True)
class GraphSpec:
    """A named graph family plus integer parameters, buildable via build()."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        _require(self.family in GRAPH_FAMILIES, f"unknown family {self.family!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))


def build(spec: GraphSpec) -> Graph:
    """Construct the graph a GraphSpec describes."""
    fam, p = spec.family, spec.params
    if fam == "complete":
        _require(len(p) == 1, "complete takes one parameter n")
        return complete(p[0])
    if fam == "complete_bipartite":
        _require(len(p) == 2, "complete_bipartite takes parameters a, b")
        return complete_bipartite(p[0], p[1])
    if fam == "star":
        _require(len(p) == 1, "star takes one parameter n")
        return star(p[0])
    if fam == "turan":
        _require(len(p) == 2, "turan takes parameters n, r")
        return turan(p[0], p[1])
    if fam == "split":
        _require(len(p) == 2, "split takes parameters n, k")
        return split(p[0], p[1])
    if fam == "complete_multipartite":
        _require(len(p) >= 1, "complete_multipartite takes part sizes")
        return complete_multipartite(p)
    if fam == "cycle":
        _require(len(p) == 1, "cycle takes one parameter n")
        return cycle(p[0])
    _require(len(p) == 1, "path takes one parameter n")
    return path(p[0])


def edgeless(n: int) -> Graph:
    _require(n >= 0, "order must be nonnegative")
    return Graph(n, ())


def complete(n: int) -> Graph:
    _require(n >= 1, "complete graph needs n >= 1")
    return Graph(n, edge_order(n))


def complete_bipartite(a: int, b: int) -> Graph:
    _require(a >= 1 and b >= 1, "complete bipartite needs part sizes >= 1")
    edges = tuple((u, a + v) for u in range(a) for v in range(b))
    return Graph(a + b, edges)


def star(n: int) -> Graph:
    """Star of order n: one center joined to n-1 leaves."""
    _require(n >= 1, "star needs n >= 1")
    return Graph(n, tuple((0, v) for v in range(1, n)))


def complete_multipartite(sizes) -> Graph:
    sizes = tuple(int(s) for s in sizes)
    _require(len(sizes) >= 1 and all(s >= 1 for s in sizes),
             "complete multipartite needs part sizes >= 1")
    bounds = tuple(itertools.accumulate(sizes, initial=0))
    parts = [range(lo, hi) for lo, hi in itertools.pairwise(bounds)]
    edges = tuple((u, v) for p, q in itertools.combinations(parts, 2) for u in p for v in q)
    return Graph(bounds[-1], edges)


def turan_part_sizes(n: int, r: int) -> tuple[int, ...]:
    """Part sizes of the complete r-partite graph on n vertices with near-equal parts."""
    _require(1 <= r <= n, "turan needs 1 <= r <= n")
    q, rem = divmod(n, r)
    return tuple([q + 1] * rem + [q] * (r - rem))


def turan(n: int, r: int) -> Graph:
    return complete_multipartite(turan_part_sizes(n, r))


def split(n: int, k: int) -> Graph:
    """Clique on k vertices joined completely to n-k isolated vertices."""
    _require(1 <= k < n, "split needs 1 <= k < n")
    return complete_multipartite([1] * k + [n - k])


def cycle(n: int) -> Graph:
    _require(n >= 1, "cycle needs n >= 1")
    if n == 1:
        return Graph(1, ())
    if n == 2:
        return Graph(2, ((0, 1),))
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return Graph(n, edges)


def path(n: int) -> Graph:
    _require(n >= 1, "path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def disjoint_union(parts) -> Graph:
    """Disjoint union, relabeling each part onto a consecutive vertex block."""
    parts = list(parts)
    offset = 0
    edges = []
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, tuple(edges))


def join(g: Graph, h: Graph) -> Graph:
    """Join of two graphs: their union plus every cross edge."""
    base = disjoint_union([g, h])
    cross = tuple((u, g.n + v) for u in range(g.n) for v in range(h.n))
    return Graph(base.n, base.edges + cross)


def component_labels(g: Graph) -> list[int]:
    """Component index of every vertex, in O(n + m): components are numbered
    0, 1, ... in the order of their least vertex."""
    label = [-1] * g.n
    count = 0
    for root in range(g.n):
        if label[root] >= 0:
            continue
        label[root] = count
        stack = [root]
        while stack:
            for w in g.neighbors[stack.pop()]:
                if label[w] < 0:
                    label[w] = count
                    stack.append(w)
        count += 1
    return label


def components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components as (subgraph, original-vertex labels), in vertex order."""
    label = component_labels(g)
    verts = [[] for _ in range(max(label, default=-1) + 1)]
    index = [0] * g.n
    for v, c in enumerate(label):
        index[v] = len(verts[c])
        verts[c].append(v)
    sub_edges = [[] for _ in verts]
    for u, v in g.edges:
        sub_edges[label[u]].append((index[u], index[v]))
    return [(Graph(len(vs), tuple(es)), tuple(vs)) for vs, es in zip(verts, sub_edges)]


def is_connected(g: Graph) -> bool:
    return max(component_labels(g), default=0) == 0


def walk2_counts(g: Graph) -> tuple[int, ...]:
    """Number of 2-walks starting at each vertex: w(u) = sum of neighbor degrees."""
    deg = g.degrees
    return tuple(sum(deg[w] for w in g.neighbors[u]) for u in range(g.n))


def parse_edge_list(text: str) -> Graph:
    """Parse the interchange format: a header line "n m", then m lines "u v".

    '#' starts a comment anywhere on a line; blank lines are skipped.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise GraphFormatError("missing header line 'n m'")
    header_no, header = rows[0]
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"line {header_no}: header must be 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise GraphFormatError(f"line {header_no}: header must be two integers") from exc
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {header_no}: n and m must be nonnegative")
    if len(rows) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers") from exc
        edges.append((u, v))
    try:
        return Graph(n, tuple(edges))
    except ParameterError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
