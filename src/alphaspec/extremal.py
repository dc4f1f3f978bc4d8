"""Brute-force extremal verification: scan a graph class exhaustively, find the
spectral-radius maximizers of M(alpha), and compare against the predicted
extremal families.

Each enumerative class is seed masks plus a closure direction (_mask_class),
closed over the edge-bit subset lattice into a 2^C(n,2)-bit table. Only its
edge-maximal members are solved; the scan then walks down from the tied ones
one deleted edge at a time: for alpha in [0, 1] the radius of M(alpha) never
falls when an edge is added, so no other member can tie. Each descent step is
one stacked LAPACK eigenvalue call. Ties stay edge masks, grouped into
isomorphism classes exactly by their orbits under relabeling, with one Graph
per class. The seeds are such orbits too, of one mask per shape, so one
(n!, C(n,2)) relabeling table answers both which masks seed a class and which
ties are isomorphic. The complete-multipartite class searches integer
partitions with the closed-form radius; complete multipartite graphs,
predicted or found, are recognized from their vertices' neighbour sets, with
no isomorphism search.

A class table, its member count and its edge-maximal members do not depend
on alpha. verify_turan builds the count and the maximal members once per
call, once every alpha is checked, and scans every alpha from them. Only the
relabeling table of each n is kept across calls (0.8 MiB at n = 7, 8 MiB at
n = 8).
"""

import functools
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import multipartite_radius
from .combinatorics import ENUMERATION_MAX_VERTICES, integer_partitions
from .eigensolver import alpha_sweep, eigvalsh_batch
from .errors import CapacityError, ParameterError, SolverError
from .graphs import (Graph, as_index, complete_multipartite, is_connected,
                     pairs_mask, turan_part_sizes)
from .matrices import _blend, check_alpha

ENUMERATIVE_MAX_VERTICES = 7
PARTITION_MAX_VERTICES = 60
DEFAULT_TIE_TOL = 1e-9
TURAN_BOUNDARY_EPS = 1e-12
TABLE_CHUNK_WORDS = 1 << 15  # class table words unpacked per pass: 2 MiB of bytes
SCREEN_STEPS = 5  # power steps behind the screening bound
SCREEN_HEAD = 4  # first-level masks solved before screening, for a lower bound

CLASS_TAGS = ("clique_free", "r_chromatic", "complete_multipartite")


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of one exhaustive maximization over a graph class."""

    class_tag: str
    n: int
    r: int
    alpha: float
    max_radius: float
    maximizers: tuple[int, ...]  # edge bitmasks of every graph within tie_tol
    maximizer_reps: tuple[Graph, ...] = field(repr=False)  # one per isomorphism class
    candidates_examined: int
    matrices_solved: int  # matrices passed to the batched eigensolver
    elapsed_seconds: float
    maximal_members: int = 0  # edge-maximal members the descent starts from; 0 for the partition search
    screened: int = 0  # masks the descent excluded by their radius bound, unsolved


def _edge_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of every pair, in edge_order(n) bit order."""
    return np.triu_indices(n, 1)


def class_member_masks(n: int, r: int, class_tag: str) -> np.ndarray:
    """Edge bitmasks of every labeled class member on n vertices, ascending."""
    return _table_masks(_class_table(n, *_mask_class(n, r, class_tag)))


def _mask_class(n: int, r: int, class_tag: str) -> tuple[np.ndarray, bool]:
    """An enumerative class as ascending int64 seed masks and a closure
    direction up: clique_free is the complement of the up-closure of the
    (r+1)-clique masks, r_chromatic the down-closure of the complete
    multipartite masks with min(r, n) parts, which are its edge-maximal
    members. Each seed set is a union of relabeling orbits: of the clique on
    vertices 0..r, or of one complete multipartite graph per integer
    partition of n into min(r, n) parts."""
    if class_tag not in ("clique_free", "r_chromatic"):
        raise ParameterError(f"no mask enumeration for class {class_tag!r}")
    n, r = as_index(n, "vertex count"), as_index(r, "class parameter r")
    if r < 1:
        raise ParameterError("class parameter r must be >= 1")
    if n < 0:
        raise ParameterError("class enumeration needs n >= 0")
    if n > ENUMERATION_MAX_VERTICES:
        raise CapacityError(
            f"class tables limited to n <= {ENUMERATION_MAX_VERTICES}, got n={n}")
    up = class_tag == "clique_free"
    if up:  # the clique on vertices 0..r, when it fits
        shapes = [pairs_mask(n, itertools.combinations(range(r + 1), 2))] if r < n else []
    else:  # n = 0 has one partition, (), whose graph has mask 0
        shapes = [complete_multipartite(p).edge_mask() if p else 0
                  for p in integer_partitions(n, r) if len(p) == min(r, n)]
    images = np.sort(np.concatenate(
        [np.empty(0, dtype=np.int64)] + [_orbit(mask, n) for mask in shapes]))
    return images[np.diff(images, prepend=-1) != 0], up


def _class_table(n: int, seeds: np.ndarray, up: bool) -> np.ndarray:
    """The class as a packed bitset: bit m & 63 of uint64 word m >> 6 is set
    when edge mask m is a member."""
    n_edges = n * (n - 1) // 2
    words = np.zeros(max(1, (1 << n_edges) >> 6), dtype=np.uint64)
    np.bitwise_or.at(words, seeds >> 6, np.uint64(1) << (seeds & 63).astype(np.uint64))
    _lattice_or(words, words, n_edges, up)
    if up:
        np.invert(words, out=words)
        words &= np.uint64((1 << min(64, 1 << n_edges)) - 1)  # no masks past 2^C(n,2)
    return words


def _lattice_or(src: np.ndarray, dst: np.ndarray, n_edges: int, up: bool) -> None:
    """For each edge bit b, one pass that ORs into dst the bit in src of each
    mask's b-subset (up) or b-superset (down). With src is dst this is the up-
    or down-closure, in any pass order, so the passes for b < 6, which stay
    within a word, run per slice of TABLE_CHUNK_WORDS words."""
    for start in range(0, src.size, TABLE_CHUNK_WORDS):
        part, out = (a[start:start + TABLE_CHUNK_WORDS] for a in (src, dst))
        for b in range(min(6, n_edges)):
            # low marks the positions j in a word with bit b of j clear: 0x5555...
            s = 1 << b
            low, shift = np.uint64(((1 << 64) - 1) // ((1 << s) + 1)), np.uint64(s)
            out |= ((part & low) << shift) if up else ((part >> shift) & low)
    for b in range(6, n_edges):
        src2, dst2 = (a.reshape(-1, 2, 1 << (b - 6)) for a in (src, dst))
        dst2[:, int(up)] |= src2[:, int(not up)]


def _table_mask_slices(words: np.ndarray):
    """The masks set in a packed table, ascending int64, one slice of
    TABLE_CHUNK_WORDS words at a time, so no pass holds a byte per mask of
    the table."""
    for start in range(0, words.size, TABLE_CHUNK_WORDS):
        part = words[start:start + TABLE_CHUNK_WORDS].astype("<u8", copy=False)
        bits = np.unpackbits(part.view(np.uint8), bitorder="little").view(bool)
        masks = np.flatnonzero(bits).astype(np.int64, copy=False)
        masks += start << 6
        yield masks


def _table_masks(words: np.ndarray) -> np.ndarray:
    """The masks set in a packed table, ascending int64."""
    return np.concatenate(list(_table_mask_slices(words)))


def _table_count(words: np.ndarray) -> int:
    """The number of masks set in a packed table."""
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _in_class(masks: np.ndarray, seeds: np.ndarray, up: bool) -> np.ndarray:
    """Which of the int64 masks lie in the class of _mask_class: outside the
    up-closure of the seeds (up), or inside their down-closure. One pass over
    the masks per seed, never a (masks x seeds) array."""
    hit = np.zeros(masks.shape, dtype=bool)
    for seed in seeds:
        hit |= (masks & seed) == (seed if up else masks)
    return hit != up


def _batch_alpha_matrices(masks: np.ndarray, n: int, alpha: float,
                          us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    b = masks.size
    bits = ((masks[:, np.newaxis] >> np.arange(us.size)[np.newaxis, :]) & 1
            ).astype(np.float64)
    adj = np.zeros((b, n, n))
    adj[:, us, vs] = bits
    adj[:, vs, us] = bits
    return _blend(adj, alpha, 1.0 - alpha)


def _maximal_member_masks(table: np.ndarray, n: int) -> np.ndarray:
    """The edge-maximal members of a class table closed under edge deletion,
    ascending: the members none of whose one-edge supersets is a member."""
    blocked = np.zeros_like(table)
    _lattice_or(table, blocked, n * (n - 1) // 2, up=False)
    np.invert(blocked, out=blocked)
    return _table_masks(np.bitwise_and(blocked, table, out=blocked))


def _radius_upper_bounds(mats: np.ndarray, alpha: float) -> np.ndarray:
    """A Collatz-Wielandt upper bound on the top eigenvalue of each matrix of a
    (b, n, n) stack of M(alpha): max_i (Mx)_i / x_i over the rows with x_i > 0,
    for x = (M + cI)^k 1 with k = SCREEN_STEPS. M is nonnegative, so the bound
    holds for any x positive on the non-isolated vertices; a row with x_i = 0
    is an isolated vertex, whose eigenvalue 0 lies below every ratio. For
    alpha >= 1/2, M = (2 alpha - 1) D + (1 - alpha)(D + A) is positive
    semidefinite and c = 0. Below, a bipartite M also has -lambda_1 as an
    eigenvalue, so the power steps would oscillate; c = (1 - 2 alpha) Delta / 2,
    Delta the largest row sum, shifts the spectrum up past that."""
    rows = mats.sum(axis=2)  # M 1
    shift = max(0.0, 1.0 - 2.0 * alpha) * 0.5 * rows.max(axis=1, keepdims=True)
    x = rows + shift
    for _ in range(SCREEN_STEPS - 1):
        x = np.einsum("bij,bj->bi", mats, x) + shift * x
    y = np.einsum("bij,bj->bi", mats, x)
    return np.divide(y, x, out=np.zeros_like(y), where=x > 0).max(axis=1)


def _enumerative_members(n: int, r: int, class_tag: str
                         ) -> tuple[tuple[np.ndarray, bool], int, np.ndarray]:
    """What a scan needs of an enumerative class at every alpha: its
    _mask_class pair, member count and ascending edge-maximal masks."""
    if n > ENUMERATIVE_MAX_VERTICES:
        raise CapacityError(
            f"enumerative scan limited to n <= {ENUMERATIVE_MAX_VERTICES}, got n={n}")
    mask_class = _mask_class(n, r, class_tag)
    table = _class_table(n, *mask_class)
    return mask_class, _table_count(table), _maximal_member_masks(table, n)


def _descend_to_ties(maximal_masks: np.ndarray, n: int, alpha: float, tie_tol: float
                     ) -> tuple[float, list[int], int, int, int]:
    """Maximum radius over the members of a class closed under edge deletion,
    given its ascending edge-maximal members: the ascending masks within
    tie_tol of it, the number of matrices solved to find them, the number of
    edge-maximal members and the number of masks left unsolved because their
    radius bound could not reach the running maximum.

    Adding an edge raises M(alpha) entrywise, so the radius never falls along
    a chain of edge additions, and both enumerative classes are closed under
    edge deletion: every tied member lies below a tied edge-maximal member
    through tied members. The descent starts from the maximal members; the
    rest are reached by deleting one edge at a time from tied graphs. On each
    level only the masks whose Collatz-Wielandt bound comes within
    tie_tol + slack of the running maximum are solved; the first level's
    maximum starts from the SCREEN_HEAD masks bounded highest, always the
    radius of a solved member. An unsolved mask's radius lies below the
    maximum by more than tie_tol, so it would be neither tied nor expanded.
    """
    us, vs = _edge_arrays(n)
    bit = np.int64(1) << np.arange(us.size, dtype=np.int64)
    level = maximal_masks
    maximal = int(level.size)
    seen = np.zeros(1 << us.size, dtype=bool)
    found_masks, found_tops = [], []
    best = -np.inf
    solved = screened = 0
    while level.size:
        seen[level] = True
        mats = _batch_alpha_matrices(level, n, alpha, us, vs)
        bound = _radius_upper_bounds(mats, alpha)
        tops = np.full(level.size, -np.inf)
        if not found_masks:  # first level: a lower bound from the masks bounded highest
            head = np.argsort(bound)[-SCREEN_HEAD:]
            tops[head] = eigvalsh_batch(mats[head])[:, 0]
            best = float(tops.max())
        # covers the roundoff of the bound and of the solve
        slack = 1e-9 * max(1.0, abs(best))
        todo = (tops == -np.inf) & (bound >= best - tie_tol - slack)
        if todo.any():
            tops[todo] = eigvalsh_batch(mats[todo])[:, 0]
        unsolved = int(np.count_nonzero(tops == -np.inf))
        solved += level.size - unsolved
        screened += unsolved
        best = max(best, float(tops.max()))
        near = tops >= best - tie_tol
        tied = level[near]
        found_masks.append(tied)
        found_tops.append(tops[near])
        # every tied graph with one of its edges deleted, each unseen one once
        children = np.sort((tied[:, np.newaxis] ^ bit)[(tied[:, np.newaxis] & bit) != 0])
        level = children[(np.diff(children, prepend=-1) != 0) & ~seen[children]]
    masks = np.concatenate(found_masks)
    # a later level may have raised best past some earlier ties
    keep = np.concatenate(found_tops) >= best - tie_tol
    return best, np.sort(masks[keep]).tolist(), solved, maximal, screened


def _membership_check(masks: list[int], seeds: np.ndarray, up: bool) -> int | None:
    """The least of the masks outside the class of (seeds, up), or None."""
    arr = np.array(masks, dtype=np.int64)
    outside = arr[~_in_class(arr, seeds, up)]
    return int(outside.min()) if outside.size else None


def _multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """g's part sizes, descending, when g is complete multipartite, else None.

    Each vertex of a complete multipartite graph is adjacent to exactly the
    vertices outside its part, so the part holding neighbour set N has n - |N|
    vertices. Conversely, vertices sharing N are pairwise nonadjacent (u in N
    would put u in N(u)), so n - |N| of them fill the complement of N.
    """
    classes = Counter(g.adjacency_bits)
    if any(count != g.n - nbrs.bit_count() for nbrs, count in classes.items()):
        return None
    return tuple(sorted(classes.values(), reverse=True))


@functools.cache
def _relabelings(n: int) -> np.ndarray:
    """Read-only (n!, C(n,2)) int64 table: entry (p, b) is the bit that edge
    bit b maps to under the p-th permutation of range(n). Refused past
    ENUMERATION_MAX_VERTICES, before allocating: 9! rows take 104 MiB."""
    if n > ENUMERATION_MAX_VERTICES:
        raise CapacityError(
            f"relabeling tables limited to n <= {ENUMERATION_MAX_VERTICES}, got n={n}")
    us, vs = _edge_arrays(n)
    # below the cap uint8 holds every pair index u * n + v (< 64) and edge
    # index (< 28), which keeps the n = 8 build's temporaries near 11 MiB
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.uint8).reshape(math.factorial(n), n)
    index = np.zeros((n, n), dtype=np.uint8)
    index[us, vs] = index[vs, us] = np.arange(us.size)
    images = np.int64(1) << index.ravel()[perms[:, us] * n + perms[:, vs]]
    images.setflags(write=False)
    return images


def _orbit(mask: int, n: int) -> np.ndarray:
    """The images of an edge mask under every relabeling of range(n),
    ascending, one per permutation. Relabeling sends distinct edges to
    distinct bits, so the sum of an edge set's images is their OR."""
    images = _relabelings(n)
    return np.sort(images[:, (mask >> np.arange(images.shape[1])) & 1 == 1].sum(axis=1))


def _dedupe_isomorphic(masks: list[int], n: int) -> list[int]:
    """One mask per isomorphism class, in order of first appearance: keep the
    first remaining mask, drop its orbit."""
    rest = np.asarray(masks, dtype=np.int64)
    reps = []
    while rest.size:
        reps.append(int(rest[0]))
        orbit = _orbit(reps[-1], n)
        at = np.minimum(np.searchsorted(orbit, rest), orbit.size - 1)
        rest = rest[orbit[at] != rest]
    return reps


def maximize_over_class(n: int, r: int, alpha: float, class_tag: str,
                        tie_tol: float = DEFAULT_TIE_TOL,
                        workers: int | None = None, *,
                        _members: tuple[tuple[np.ndarray, bool], int, np.ndarray] | None = None
                        ) -> ExtremalResult:
    """Exhaustive spectral-radius maximization of M(alpha) over one graph class.

    clique_free(r): graphs with no complete subgraph on r+1 vertices.
    r_chromatic(r): graphs colorable with r colors.
    complete_multipartite(r): complete multipartite graphs with at most r parts,
    searched through integer partitions with the closed-form radius.
    workers is accepted for compatibility and has no effect: scans run in
    this process. tie_tol must be finite and >= 0. _members is the
    _enumerative_members of the class when the caller has built it already.
    """
    n, r = as_index(n, "vertex count"), as_index(r, "class parameter r")
    a = check_alpha(alpha)
    tie_tol = _check_tie_tol(tie_tol)
    if class_tag not in CLASS_TAGS:
        raise ParameterError(f"unknown class {class_tag!r}")
    if r < 1:
        raise ParameterError("class parameter r must be >= 1")
    if n < 1:
        raise ParameterError("class maximization needs n >= 1")
    t0 = time.perf_counter()
    if class_tag == "complete_multipartite":
        if n > PARTITION_MAX_VERTICES:
            raise CapacityError(
                f"partition search limited to n <= {PARTITION_MAX_VERTICES}, got n={n}")
        if a == 1.0:
            raise ParameterError("partition search needs alpha < 1")
        best = -np.inf
        near: list[tuple[tuple[int, ...], float]] = []
        examined = 0
        for parts in integer_partitions(n, r):
            examined += 1
            val = multipartite_radius(parts, a) if len(parts) >= 2 else 0.0
            if val > best:
                best = val
                near = [(p, v) for p, v in near if v >= best - tie_tol]
            if val >= best - tie_tol:
                near.append((parts, val))
        reps = [complete_multipartite(p) for p, _ in near]  # never isomorphic to each other
        masks = sorted(g.edge_mask() for g in reps)
        solved = maximal = screened = 0
        bad = [g for g in reps
               if (parts := _multipartite_parts(g)) is None or len(parts) > max(r, 1)]
        outside = bad[0].edge_mask() if bad else None
    else:
        mask_class, examined, maximal_masks = _members or _enumerative_members(n, r, class_tag)
        best, masks, solved, maximal, screened = _descend_to_ties(
            maximal_masks, n, a, tie_tol)
        reps = [Graph.from_edge_mask(n, m) for m in _dedupe_isomorphic(masks, n)]
        outside = _membership_check(masks, *mask_class)
    if outside is not None:
        raise SolverError("scan produced a maximizer outside the class",
                          n=n, r=r, alpha=a, mask=outside)
    elapsed = time.perf_counter() - t0
    return ExtremalResult(class_tag, n, r, float(a), float(best),
                          tuple(int(m) for m in masks), tuple(reps),
                          examined, solved, elapsed, maximal, screened)


def _check_tie_tol(tie_tol: float) -> float:
    try:
        tie_tol = float(tie_tol)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"tie_tol {tie_tol!r} is not a number") from exc
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ParameterError(f"tie_tol must be finite and >= 0, got {tie_tol}")
    return tie_tol


@dataclass(frozen=True)
class TuranCheck:
    """One alpha's comparison between the scan result and the predicted maximizer."""

    alpha: float
    status: str  # "ok" | "counterexample"
    regime: str  # "turan" | "split" | "tie"
    max_radius: float
    expected_radius: float
    maximizer_edge_lists: tuple[tuple[tuple[int, int], ...], ...]
    examined: int
    solved: int
    elapsed_ms: float  # the first check also carries the call's one class build
    detail: str = ""
    maximal: int = 0  # edge-maximal members the scan started from
    screened: int = 0  # masks excluded by their radius bound, unsolved

    def to_json_obj(self, n: int, r: int) -> dict:
        return {
            "class": f"clique_free({r + 1})",
            "n": n,
            "r": r,
            "alpha": self.alpha,
            "regime": self.regime,
            "max_radius": self.max_radius,
            "expected_radius": self.expected_radius,
            "maximizer_edge_lists": [[list(e) for e in el]
                                     for el in self.maximizer_edge_lists],
            "examined": self.examined,
            "solved": self.solved,
            "screened": self.screened,
            "maximal": self.maximal,
            "elapsed_ms": self.elapsed_ms,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class TuranVerification:
    n: int
    r: int
    checks: tuple[TuranCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == "ok" for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "r": self.r, "ok": self.ok,
                "checks": [c.to_json_obj(self.n, self.r) for c in self.checks]}


def verify_turan(n: int, r: int, alphas, tie_tol: float = DEFAULT_TIE_TOL,
                 workers: int | None = None) -> TuranVerification:
    """Check the predicted clique-free maximizers against exhaustive scans.

    Below the boundary alpha = 1 - 1/r the balanced complete r-partite graph
    must be the unique maximizer up to isomorphism; above it, the split graph
    (clique on r-1 vertices joined to the rest); within 1e-12 of the boundary
    every complete r-partite graph must tie at (1 - 1/r) * n. workers has no
    effect, as in maximize_over_class. Every alpha is checked before the class
    is built, once, and its time counts in the first check's elapsed_ms.
    """
    n, r = as_index(n, "vertex count"), as_index(r, "class parameter r")
    if not 2 <= r:
        raise ParameterError("need r >= 2")
    if n < r + 1:
        raise ParameterError("need n > r so the class constraint binds")
    tie_tol = _check_tie_tol(tie_tol)
    checked = [check_alpha(alpha) for alpha in alphas]  # all valid before any build
    if 1.0 in checked:
        raise ParameterError("verification needs alpha < 1")
    checks = []
    boundary = 1.0 - 1.0 / r
    t0 = time.perf_counter()
    members = _enumerative_members(n, r, "clique_free") if checked else None
    build_s = time.perf_counter() - t0
    for a in checked:
        res = maximize_over_class(n, r, a, "clique_free", tie_tol=tie_tol,
                                  workers=workers, _members=members)
        problems = []
        if abs(a - boundary) <= TURAN_BOUNDARY_EPS:
            regime = "tie"
            expected_radius = boundary * n
            if abs(res.max_radius - expected_radius) > 1e-9:
                problems.append(
                    f"max {res.max_radius!r} differs from {expected_radius!r}")
            expect_masks = set(_mask_class(n, r, "r_chromatic")[0].tolist())
            got_masks = set(res.maximizers)
            if got_masks != expect_masks:
                missing = sorted(expect_masks - got_masks)[:4]
                extra = sorted(got_masks - expect_masks)[:4]
                problems.append(
                    f"tie set mismatch: missing {missing}, extra {extra}")
        else:
            if a < boundary:
                regime = "turan"
                parts = turan_part_sizes(n, r)
            else:
                regime = "split"
                parts = (n - r + 1,) + (1,) * (r - 1)
            expected_radius = multipartite_radius(parts, a)
            if abs(res.max_radius - expected_radius) > 1e-8:
                problems.append(
                    f"max {res.max_radius!r} differs from closed form {expected_radius!r}")
            bad = [g for g in res.maximizer_reps if _multipartite_parts(g) != parts]
            if bad:
                problems.append(
                    f"{len(bad)} maximizer class(es) differ from the predicted graph")
        checks.append(TuranCheck(
            alpha=float(a),
            status="ok" if not problems else "counterexample",
            regime=regime,
            max_radius=res.max_radius,
            expected_radius=float(expected_radius),
            maximizer_edge_lists=tuple(g.edges for g in res.maximizer_reps),
            examined=res.candidates_examined,
            solved=res.matrices_solved,
            maximal=res.maximal_members,
            screened=res.screened,
            elapsed_ms=(build_s + res.elapsed_seconds) * 1000.0,
            detail="; ".join(problems),
        ))
        build_s = 0.0
    return TuranVerification(n, r, tuple(checks))


@dataclass(frozen=True)
class MonotonicityReport:
    graph_id: str
    grid: tuple[float, ...]
    ok: bool
    violations: tuple[str, ...]
    strict_margin: float | None  # smallest step increase, connected non-regular only


def monotonicity_check(g: Graph, grid) -> MonotonicityReport:
    """Grid checks of eigenvalue behavior in alpha: monotone, Lipschitz(n),
    top convex, bottom concave, strict growth for connected irregular graphs."""
    alphas = tuple(float(x) for x in grid)
    if len(alphas) < 2:
        raise ParameterError("grid needs at least two alphas")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("grid must be strictly increasing")
    sweep = alpha_sweep(g, alphas)
    tab = sweep.table()
    steps = np.diff(np.array(alphas))
    problems = []
    diffs = np.diff(tab, axis=0)
    excess = np.abs(diffs) - steps[:, np.newaxis] * g.n
    fell, fast = diffs < -1e-9, excess > 1e-9
    for i, k in zip(*np.nonzero(fell | fast)):  # step by step, eigenvalue by eigenvalue
        if fell[i, k]:
            problems.append(f"lambda_{k + 1} decreased by {-diffs[i, k]:.3e} on step {i}")
        if fast[i, k]:
            problems.append(
                f"lambda_{k + 1} step {i} exceeds the Lipschitz rate by {excess[i, k]:.3e}")
    if g.n >= 1 and len(alphas) >= 3:
        curve = np.diff(sweep.difference_quotients(), axis=0) * np.minimum(
            steps[:-1], steps[1:])[:, np.newaxis]
        for i in np.flatnonzero(curve[:, 0] < -1e-8):
            problems.append(f"lambda_1 convexity defect {curve[i, 0]:.3e} at knot {i + 1}")
        for i in np.flatnonzero(curve[:, -1] > 1e-8):
            problems.append(f"lambda_n concavity defect {curve[i, -1]:.3e} at knot {i + 1}")
    margin = None
    if g.n >= 1 and is_connected(g):
        if not g.is_regular():
            margin = float(diffs.min())
            if margin <= 1e-10:
                problems.append(
                    f"irregular connected graph grew by only {margin:.3e}")
        else:
            d = g.max_degree()
            flat = float(np.abs(tab[:, 0] - d).max())
            if flat > 1e-9:
                problems.append(
                    f"regular graph's top eigenvalue moved by {flat:.3e}")
    return MonotonicityReport(
        graph_id=f"graph-n{g.n}-m{g.m}",
        grid=alphas,
        ok=not problems,
        violations=tuple(problems),
        strict_margin=margin,
    )
