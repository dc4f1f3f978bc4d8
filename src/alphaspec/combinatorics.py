"""Exact combinatorial subroutines at desk scale: cliques, coloring, cuts,
distances, orbits, isomorphism, and labeled graph enumeration.

Everything here is exhaustive and deterministic; documented size caps raise
CapacityError instead of silently degrading.
"""

import numpy as np

from .errors import CapacityError, ParameterError
from .graphs import Graph, edge_order

ENUMERATION_MAX_VERTICES = 8
MAXCUT_MAX_VERTICES = 24
ORBITS_MAX_VERTICES = 10
CHROMATIC_DEFAULT_LIMIT = 16


def has_clique(g: Graph, k: int) -> bool:
    """Exact test for a complete subgraph on k vertices (backtracking on bitsets)."""
    if k <= 0:
        return True
    if k == 1:
        return g.n >= 1
    if k > g.n:
        return False
    adj = g.adjacency_bits
    order = sorted(range(g.n), key=lambda v: g.degrees[v], reverse=True)

    def extend(size: int, cand: int) -> bool:
        if size == k:
            return True
        # not enough candidates left to finish the clique
        if size + bin(cand).count("1") < k:
            return False
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if extend(size + 1, cand & adj[v]):
                return True
        return False

    full = 0
    for v in order:
        if g.degrees[v] >= k - 1:
            full |= 1 << v
    for v in order:
        if g.degrees[v] < k - 1:
            continue
        if extend(1, adj[v] & full & ~((1 << (v + 1)) - 1)):
            return True
    return False


def is_clique_free(g: Graph, clique_size: int) -> bool:
    """True when g contains no complete subgraph on clique_size vertices."""
    if clique_size < 2:
        raise ParameterError("clique size must be at least 2")
    return not has_clique(g, clique_size)


def max_clique_size(g: Graph) -> int:
    k = 0
    while k < g.n and has_clique(g, k + 1):
        k += 1
    return k


def _colorable(g: Graph, k: int) -> bool:
    if k >= g.n:
        return True
    order = sorted(range(g.n), key=lambda v: g.degrees[v], reverse=True)
    color = {}

    def assign(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        banned = {color[w] for w in g.neighbors[v] if w in color}
        # allowing one fresh color per step breaks color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            color[v] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            del color[v]
        return False

    return assign(0, 0)


def chromatic_number(g: Graph, limit: int = CHROMATIC_DEFAULT_LIMIT) -> int:
    """Exact chromatic number by branch and bound from a clique lower bound."""
    if g.n > limit:
        raise CapacityError(f"chromatic number limited to n <= {limit}, got n={g.n}")
    if g.n == 0:
        return 0
    k = max_clique_size(g)
    while not _colorable(g, k):
        k += 1
    return k


def maxcut(g: Graph) -> int:
    """Maximum number of crossing edges over all vertex bipartitions (exact).

    A side S crosses cut(S) = sum over u in S of deg(u) - |N(u) & S| edges,
    one popcount pass per vertex.
    """
    if g.n > MAXCUT_MAX_VERTICES:
        raise CapacityError(f"maxcut limited to n <= {MAXCUT_MAX_VERTICES}, got n={g.n}")
    if g.n <= 1 or g.m == 0:
        return 0
    # vertex n-1 pinned outside S; scan the sides S of the rest in chunks
    total = 1 << (g.n - 1)
    best = 0
    chunk = 1 << 20
    for start in range(0, total, chunk):
        sides = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cuts = np.zeros(sides.shape, dtype=np.int64)
        for u, (nbrs, deg) in enumerate(zip(g.adjacency_bits[:-1], g.degrees)):
            cuts += (sides >> u & 1) * (deg - np.bitwise_count(sides & nbrs))
        best = max(best, int(cuts.max()))
    return best


def diameter(g: Graph):
    """Least k at which (I + A)^k, kept as its 0/1 pattern, has no zero entry
    (dist(u, v) <= k exactly where it is positive); None when g is disconnected.

    The pattern is squared until it is full, then k is found by descending
    over the saved powers, so a path costs O(log(diameter) * n^3). Products
    run in float64, which has a BLAS path; the counts they hold are exact.
    """
    if g.n <= 1:
        return 0
    reach = np.eye(g.n) + g.adjacency  # dist <= 1
    powers = []  # powers[i]: the pattern of dist <= 2^i, none of them full
    while not reach.all():
        powers.append(reach)
        reach = np.minimum(reach @ reach, 1.0)
        if np.array_equal(reach, powers[-1]):
            return None
    if not powers:
        return 1
    # the largest k whose pattern is not full is diameter - 1
    reach, k = powers[-1], 1 << (len(powers) - 1)
    for i in range(len(powers) - 2, -1, -1):
        step = np.minimum(reach @ powers[i], 1.0)
        if not step.all():
            reach, k = step, k + (1 << i)
    return k + 1


def _find_isomorphism(g: Graph, h: Graph, pin=None):
    """Edge-preserving vertex map from g onto h by backtracking, or None.

    g's vertices are placed in degree-descending order, pin=(u, w) placing u
    first and onto w, each onto an unused vertex of h with the same degree
    and the same adjacency to the vertices already placed.
    """
    n = g.n
    degg, degh = g.degrees, h.degrees
    bitg, bith = g.adjacency_bits, h.adjacency_bits
    order = sorted(range(n), key=lambda v: (pin is None or v != pin[0], -degg[v]))
    cands = [[w for w in range(n) if degh[w] == degg[v]] for v in order]
    if pin is not None:
        cands[0] = [w for w in cands[0] if w == pin[1]]
    image = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        bv = bitg[v]
        for w in cands[i]:
            if used[w]:
                continue
            bw = bith[w]
            for j in range(i):
                u = order[j]
                if (bv >> u & 1) != (bw >> image[u] & 1):
                    break
            else:
                image[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
        return False

    return tuple(image) if place(0) else None


def vertex_orbits(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphism orbits of the vertex set, each sorted, ordered by minimum."""
    if g.n > ORBITS_MAX_VERTICES:
        raise CapacityError(f"orbits limited to n <= {ORBITS_MAX_VERTICES}, got n={g.n}")
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if find(u) == find(v):
                continue
            if _find_isomorphism(g, g, pin=(u, v)) is not None:
                parent[find(v)] = find(u)
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(vs)) for _, vs in sorted(groups.items()))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by backtracking (intended for small n)."""
    if g.n != h.n or g.m != h.m or sorted(g.degrees) != sorted(h.degrees):
        return False
    return _find_isomorphism(g, h) is not None


def _check_enumeration_order(n: int) -> None:
    if n > ENUMERATION_MAX_VERTICES:
        raise CapacityError(
            f"enumeration limited to n <= {ENUMERATION_MAX_VERTICES}, got n={n}")
    if n < 0:
        raise ParameterError("vertex count must be nonnegative")


def enumerate_graphs(n: int, predicate=None, start: int = 0, stop=None):
    """Yield every labeled graph on n vertices in edge-bitmask order.

    Only masks in the interval [start, stop) are visited. An optional
    predicate filters the yielded graphs (it does not shrink the scan, so the
    n <= 8 cap applies regardless).
    """
    _check_enumeration_order(n)
    total = 1 << len(edge_order(n))
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ParameterError("bad bitmask range")
    for mask in range(start, stop):
        g = Graph.from_edge_mask(n, mask)
        if predicate is None or predicate(g):
            yield g


def integer_partitions(n: int, max_parts: int):
    """Partitions of n into at most max_parts parts, each >= 1, weakly decreasing."""

    def rec(remaining: int, cap: int, parts: list[int]):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_parts:
            return
        for p in range(min(cap, remaining), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p, parts)
            parts.pop()

    yield from rec(n, n, [])
