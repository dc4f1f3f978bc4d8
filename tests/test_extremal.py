import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alphaspec.extremal as extremal
from alphaspec import (CapacityError, Graph, ParameterError, SolverError,
                       alpha_matrix, chromatic_number, complete_multipartite,
                       cycle, eigenvalues_only, eigvalsh_batch,
                       enumerate_graphs, is_clique_free, maximize_over_class,
                       monotonicity_check, multipartite_radius, path, star,
                       turan, verify_turan)
from alphaspec.combinatorics import are_isomorphic, has_clique, integer_partitions
from alphaspec.graphs import (components, edge_order, pairs_mask, split,
                              turan_part_sizes)
from conftest import rand_connected


def test_triangle_free_maximizer_low_alpha():
    res = maximize_over_class(5, 2, 0.0, "clique_free")
    assert res.max_radius == pytest.approx(math.sqrt(6.0), abs=1e-9)
    assert len(res.maximizer_reps) == 1
    rep = res.maximizer_reps[0]
    from alphaspec.combinatorics import are_isomorphic
    assert are_isomorphic(rep, turan(5, 2))


def test_triangle_free_maximizer_high_alpha():
    res = maximize_over_class(5, 2, 0.8, "clique_free")
    assert len(res.maximizer_reps) == 1
    from alphaspec.combinatorics import are_isomorphic
    assert are_isomorphic(res.maximizer_reps[0], star(5))
    # star radius from the two-level closed form
    assert res.max_radius == pytest.approx(multipartite_radius([4, 1], 0.8), abs=1e-8)


def test_examined_counts_match_enumeration():
    for r in (2, 3):
        want = sum(1 for _ in enumerate_graphs(
            5, predicate=lambda g: is_clique_free(g, r + 1)))
        res = maximize_over_class(5, r, 0.3, "clique_free")
        assert res.candidates_examined == want
    assert maximize_over_class(5, 2, 0.3, "clique_free").candidates_examined == 388


def test_partition_search_agrees_with_dense_eigensolver():
    for n, r, a in ((6, 3, 0.3), (8, 2, 0.6), (7, 4, 0.0)):
        res = maximize_over_class(n, r, a, "complete_multipartite")
        best = 0.0
        for sizes in integer_partitions(n, r):
            if len(sizes) >= 2:
                g = complete_multipartite(sizes)
                best = max(best, float(eigenvalues_only(alpha_matrix(g, a))[0]))
        assert res.max_radius == pytest.approx(best, abs=1e-9)
        assert res.candidates_examined == len(list(integer_partitions(n, r)))


def test_r_chromatic_class_contains_turan_max():
    res = maximize_over_class(5, 2, 0.2, "r_chromatic")
    want = multipartite_radius(turan_part_sizes(5, 2), 0.2)
    assert res.max_radius == pytest.approx(want, abs=1e-8)


def test_workers_chunked_scan_matches_sequential():
    # workers is still accepted and has no effect
    seq = maximize_over_class(6, 2, 0.4, "clique_free", workers=1)
    par = maximize_over_class(6, 2, 0.4, "clique_free", workers=2)
    assert par.max_radius == pytest.approx(seq.max_radius, abs=1e-12)
    assert par.maximizers == seq.maximizers


def test_capacity_and_validation():
    with pytest.raises(CapacityError):
        maximize_over_class(8, 2, 0.3, "clique_free")
    with pytest.raises(ParameterError):
        maximize_over_class(5, 2, 0.3, "mystery_class")
    with pytest.raises(ParameterError):
        maximize_over_class(5, 0, 0.3, "clique_free")
    with pytest.raises(ParameterError):
        maximize_over_class(10, 3, 1.0, "complete_multipartite")
    with pytest.raises(ParameterError):
        verify_turan(5, 1, [0.3])
    with pytest.raises(ParameterError):
        verify_turan(3, 3, [0.3])
    with pytest.raises(ParameterError):
        verify_turan(5, 2, [1.0])


@pytest.mark.parametrize("fn,args,kwargs", [
    pytest.param(maximize_over_class, (4.0, 2, 0.3, "clique_free"), {}, id="max-n-float"),
    pytest.param(maximize_over_class, (4.0, 2, 0.3, "r_chromatic"), {}, id="max-n-float-chi"),
    pytest.param(maximize_over_class, (4, 2.5, 0.3, "clique_free"), {}, id="max-r-float"),
    pytest.param(maximize_over_class, (4, 2.5, 0.3, "r_chromatic"), {}, id="max-r-float-chi"),
    # a fractional r reaching the partition search's class re-check raised SolverError
    pytest.param(maximize_over_class, (5, 2.5, 0.3, "complete_multipartite"), {},
                 id="max-r-float-partitions"),
    pytest.param(maximize_over_class, (4, 2, 0.3, "clique_free"), {"tie_tol": "x"},
                 id="max-tie-tol-str"),
    pytest.param(maximize_over_class, (4, 2, 0.3, "complete_multipartite"), {"tie_tol": None},
                 id="max-tie-tol-none"),
    pytest.param(verify_turan, (5, 2.0, [0.3]), {}, id="turan-r-float"),
    pytest.param(verify_turan, (5.0, 2, [0.3]), {}, id="turan-n-float"),
    pytest.param(verify_turan, (5, 2, [0.3]), {"tie_tol": "x"}, id="turan-tie-tol-str"),
    pytest.param(extremal.class_member_masks, (4, 2.5, "clique_free"), {}, id="members-r-float"),
    pytest.param(extremal.class_member_masks, ("4", 2, "r_chromatic"), {}, id="members-n-str"),
])
def test_non_integer_class_parameters_rejected(fn, args, kwargs):
    with pytest.raises(ParameterError):
        fn(*args, **kwargs)


def test_verify_turan_both_regimes():
    out = verify_turan(5, 2, [0.1, 0.9])
    assert out.ok
    low, high = out.checks
    assert low.regime == "turan" and high.regime == "split"
    assert low.max_radius == pytest.approx(low.expected_radius, abs=1e-8)
    doc = out.to_json_obj()
    assert doc["ok"] is True and len(doc["checks"]) == 2
    assert doc["checks"][0]["class"] == "clique_free(3)"


def test_verify_turan_boundary_tie():
    out = verify_turan(5, 2, [0.5])
    check = out.checks[0]
    assert check.regime == "tie" and check.status == "ok"
    # bipartitions of 5 into two nonempty parts: 4+1 and 3+2
    assert len(check.maximizer_edge_lists) == 2
    assert check.max_radius == pytest.approx(2.5, abs=1e-9)


def test_verify_turan_flags_wrong_prediction(monkeypatch):
    monkeypatch.setattr(extremal, "turan_part_sizes", lambda n, r: (n - 1, 1))
    out = verify_turan(5, 2, [0.1])
    assert not out.ok
    assert out.checks[0].status == "counterexample"
    assert "differ from the predicted graph" in out.checks[0].detail


def test_split_graph_is_high_alpha_winner():
    # S_{6,2}: K_2 joined with 4 isolated vertices, the r=3 high-alpha maximizer
    res = maximize_over_class(6, 3, 0.9, "clique_free")
    from alphaspec.combinatorics import are_isomorphic
    assert len(res.maximizer_reps) == 1
    assert are_isomorphic(res.maximizer_reps[0], split(6, 2))


def test_monotonicity_path():
    rep = monotonicity_check(path(4), [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert rep.ok
    assert rep.violations == ()
    assert rep.strict_margin is not None and rep.strict_margin > 1e-10


def test_monotonicity_regular_graph_flat_top():
    rep = monotonicity_check(cycle(6), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert rep.ok
    assert rep.strict_margin is None


def test_monotonicity_random_corpus(rng):
    grid = [i / 10 for i in range(11)]
    for _ in range(12):
        g = rand_connected(rng, int(rng.integers(2, 9)), extra=int(rng.integers(0, 4)))
        rep = monotonicity_check(g, grid)
        assert rep.ok, rep.violations


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), mask_seed=st.integers(0, 2 ** 28 - 1),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True))
@example(n=8, mask_seed=1131, ends=[0.0, 6.692927171766018e-161])
def test_eigenvalues_monotone_and_lipschitz_in_alpha(n, mask_seed, ends):
    # M(b) - M(a) = (b - a) L with 0 <= L <= n I, so by Weyl every eigenvalue
    # rises by at least 0 and at most (b - a) n
    a, b = sorted(ends)
    g = Graph.from_edge_mask(n, mask_seed % (1 << (n * (n - 1) // 2)))
    step = eigenvalues_only(alpha_matrix(g, b)) - eigenvalues_only(alpha_matrix(g, a))
    assert np.all(step >= -1e-9), (a, b, step)
    assert np.all(step <= (b - a) * n + 1e-9), (a, b, step)


def test_verify_turan_at_tiny_alpha():
    # LAPACK's values-only solve gets some of these matrices wrong
    assert verify_turan(7, 2, [6.692927171766018e-161, 1e-160, 1e-158]).ok


def test_batch_at_tiny_alpha_matches_adjacency_values(rng):
    for n in (5, 6):
        us, vs = extremal._edge_arrays(n)
        masks = rng.integers(0, 1 << us.size, size=100).astype(np.int64)
        want = eigvalsh_batch(extremal._batch_alpha_matrices(masks, n, 0.0, us, vs))
        for a in np.logspace(-165, -140, 100):
            got = eigvalsh_batch(extremal._batch_alpha_matrices(masks, n, float(a), us, vs))
            assert np.max(np.abs(got - want)) <= 1e-9, (n, a)


def test_monotonicity_grid_validation():
    with pytest.raises(ParameterError):
        monotonicity_check(path(3), [0.5])
    with pytest.raises(ParameterError):
        monotonicity_check(path(3), [0.5, 0.5])
    with pytest.raises(ParameterError):
        monotonicity_check(path(3), [0.0, 1.5])


def test_descent_solves_fewer_matrices_than_members():
    res = maximize_over_class(6, 2, 0.3, "clique_free")
    assert 0 < res.matrices_solved < res.candidates_examined
    out = verify_turan(6, 2, [0.3])
    check = out.to_json_obj()["checks"][0]
    assert check["solved"] == res.matrices_solved
    assert check["solved"] < check["examined"]
    assert maximize_over_class(6, 3, 0.3, "complete_multipartite").matrices_solved == 0


# ---------------------------------------------------------------- members
# The class by filtering every edge mask on n vertices: each (r+1)-clique
# rules masks out, each partition into at most r blocks rules masks in.
# class_member_masks closes a few seed masks over the subset lattice instead
# and must list the same array.

def _table(n, r, class_tag):
    return extremal._class_table(n, *extremal._mask_class(n, r, class_tag))


def _clique_edge_masks(n, k):
    """Edge bitmask of every k-vertex clique on 0..n-1, in subset order."""
    return [pairs_mask(n, itertools.combinations(sub, 2))
            for sub in itertools.combinations(range(n), k)]


def _complete_multipartite_mask(n, blocks):
    """Edge bitmask of the complete multipartite graph with the given vertex blocks."""
    block_of = {v: b for b, vs in enumerate(blocks) for v in vs}
    return pairs_mask(n, ((u, v) for u, v in edge_order(n) if block_of[u] != block_of[v]))


def _set_partitions(n, max_blocks):
    """Partitions of 0..n-1 into at most max_blocks nonempty blocks, each a
    tuple, sorted by first element."""
    if n == 0:
        yield ()
        return

    def rec(i, blocks):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def _stirling2(n, k):
    """Partitions of an n-set into exactly k nonempty blocks."""
    terms = ((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return sum(terms) // math.factorial(k)


def test_reference_seed_generators():
    masks = _clique_edge_masks(5, 3)
    assert len(masks) == 10 and all(m.bit_count() == 3 for m in masks)
    assert Graph.from_edge_mask(4, _complete_multipartite_mask(4, ((0, 1), (2, 3)))) == Graph(
        4, ((0, 2), (0, 3), (1, 2), (1, 3)))
    # S(4,1) + S(4,2) = 1 + 7, S(4,<=3) = 1 + 7 + 6
    assert [len(list(_set_partitions(4, k))) for k in (1, 2, 3)] == [1, 8, 14]
    for blocks in _set_partitions(4, 2):
        assert sorted(v for b in blocks for v in b) == [0, 1, 2, 3]
    assert [_stirling2(4, k) for k in range(6)] == [0, 1, 7, 6, 1, 0]
    assert _stirling2(0, 0) == 1


@pytest.mark.parametrize("class_tag", ["clique_free", "r_chromatic"])
def test_mask_class_seeds_match_brute_force(class_tag):
    """The seeds, relabeling orbits of one mask per shape, are the masks the
    generators above list one labeled copy at a time."""
    for n in range(9):
        for r in range(1, 9):
            seeds, up = extremal._mask_class(n, r, class_tag)
            case = (n, r)
            if class_tag == "clique_free":
                want = _clique_edge_masks(n, r + 1)
                count = math.comb(n, r + 1)
                assert all(m.bit_count() == math.comb(r + 1, 2) for m in want), case
            else:
                want = [_complete_multipartite_mask(n, blocks)
                        for blocks in _set_partitions(n, r) if len(blocks) == min(r, n)]
                count = _stirling2(n, min(r, n))
            assert up == (class_tag == "clique_free"), case
            assert seeds.dtype == np.int64 and np.all(seeds[1:] > seeds[:-1]), case
            assert set(seeds.tolist()) == set(want), case
            assert seeds.size == len(want) == count, case
    assert extremal._mask_class(0, 3, "r_chromatic")[0].tolist() == [0]


def test_relabelings_capped_before_allocating():
    # 9! rows of C(9,2) int64 bits would take 104 MiB
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="n <= 8"):
            extremal._relabelings(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _filtered_members(n, r, class_tag):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    if class_tag == "clique_free":
        keep = np.ones(masks.shape, dtype=bool)
        for cm in _clique_edge_masks(n, r + 1):
            keep &= (masks & cm) != cm
    else:
        keep = np.zeros(masks.shape, dtype=bool)
        for blocks in _set_partitions(n, r):
            pm = _complete_multipartite_mask(n, blocks)
            keep |= (masks & pm) == masks
    return masks[keep]


def _clique_blocked_maximal(n, r, members):
    """clique_free members to which no edge can be added: a non-edge is blocked
    when it is the only edge some (r+1)-clique still misses, and a member is
    maximal when its edges and blocked non-edges cover every pair."""
    full = (1 << (n * (n - 1) // 2)) - 1
    blocked = np.zeros(members.shape, dtype=np.int64)
    for cm in _clique_edge_masks(n, r + 1):
        miss = cm & ~members
        blocked |= np.where((miss & (miss - 1)) == 0, miss, 0)
    return members[(members | blocked) == full]


def _assert_members_match_filter(n, r, class_tag):
    got = extremal.class_member_masks(n, r, class_tag)
    want = _filtered_members(n, r, class_tag)
    case = (n, r, class_tag)
    assert got.dtype == np.int64, case
    assert np.array_equal(got, want), case
    assert np.all(got[1:] > got[:-1]), case


@pytest.mark.parametrize("class_tag", ["clique_free", "r_chromatic"])
@pytest.mark.parametrize("n", range(1, 7))
def test_class_members_match_filter(n, class_tag):
    for r in range(1, n + 2):
        _assert_members_match_filter(n, r, class_tag)


@pytest.mark.parametrize("r,class_tag", [(1, "clique_free"), (2, "clique_free"),
                                         (3, "clique_free"), (1, "r_chromatic"),
                                         (2, "r_chromatic"), (3, "r_chromatic")])
def test_class_members_match_filter_n7(r, class_tag):
    _assert_members_match_filter(7, r, class_tag)


# labeled triangle-free (OEIS A006785) and bipartite (A047864) graphs, n = 0..8
TRIANGLE_FREE = (1, 1, 2, 7, 41, 388, 5789, 133501, 4682270)
BIPARTITE = (1, 1, 2, 7, 41, 376, 5177, 103237, 2922446)


@pytest.mark.parametrize("class_tag,counts", [("clique_free", TRIANGLE_FREE),
                                              ("r_chromatic", BIPARTITE)])
def test_class_counts_match_oeis(class_tag, counts):
    for n in range(8):
        assert extremal.class_member_masks(n, 2, class_tag).size == counts[n], n
    # n=8 never lists the members: count the 32 MiB table in 2 MiB slices
    table = _table(8, 2, class_tag)
    assert sum(int(np.count_nonzero(np.unpackbits(part.view(np.uint8))))
               for part in np.array_split(table, 16)) == counts[8]


def test_class_member_masks_validation():
    with pytest.raises(ParameterError, match="no mask enumeration"):
        extremal.class_member_masks(4, 2, "complete_multipartite")
    with pytest.raises(ParameterError, match="n >= 0"):
        extremal.class_member_masks(-1, 2, "clique_free")
    for class_tag in ("clique_free", "r_chromatic"):
        with pytest.raises(ParameterError, match="r must be >= 1"):
            extremal.class_member_masks(4, 0, class_tag)
        # n=9 would need a 2^36-bit (8 GiB) table; refused before allocating
        with pytest.raises(CapacityError, match="n <= 8"):
            extremal.class_member_masks(9, 2, class_tag)


def _assert_maximal_match_clique_rule(n, r):
    members = extremal.class_member_masks(n, r, "clique_free")
    got = extremal._maximal_member_masks(_table(n, r, "clique_free"), n)
    assert got.dtype == np.int64, (n, r)
    assert np.array_equal(got, _clique_blocked_maximal(n, r, members)), (n, r)


@pytest.mark.parametrize("n", range(1, 7))
def test_maximal_members_match_clique_rule(n):
    for r in range(1, n + 2):
        _assert_maximal_match_clique_rule(n, r)
        # on the r-colorable graphs the same pass finds the complete
        # multipartite ones
        seeds, _ = extremal._mask_class(n, r, "r_chromatic")
        got = extremal._maximal_member_masks(_table(n, r, "r_chromatic"), n)
        assert np.array_equal(got, np.sort(seeds)), (n, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_maximal_members_match_clique_rule_n7(r):
    _assert_maximal_match_clique_rule(7, r)


@pytest.mark.parametrize("n,r,class_tag,maximal", [(7, 2, "clique_free", 1743),
                                                   (6, 3, "clique_free", 162),
                                                   (7, 2, "r_chromatic", 63)])
def test_maximal_members_counted(n, r, class_tag, maximal):
    res = maximize_over_class(n, r, 0.3, class_tag)
    assert res.maximal_members == maximal
    assert maximal <= res.matrices_solved + res.screened
    assert maximize_over_class(n, r, 0.3, "complete_multipartite").maximal_members == 0


@pytest.mark.parametrize("class_tag,outside,below", [
    pytest.param("clique_free", Graph(5, ((0, 1), (0, 2), (1, 2))), (),
                 id="clique_free-outside0"),  # a triangle
    pytest.param("r_chromatic", cycle(5), (), id="r_chromatic-outside1"),  # an odd cycle
    # the single edge (0, 1), mask 1, lies in the class below the triangle's
    # mask 19, so a test that calls every mask outside reports 1, not 19
    pytest.param("clique_free", Graph(5, ((0, 1), (0, 2), (1, 2))), (1,),
                 id="clique_free-inside-below"),
])
def test_membership_check_rejects_outside_tie(monkeypatch, class_tag, outside, below):
    inside = Graph(5, ((0, 2), (3, 4))).edge_mask()
    bad = outside.edge_mask()
    bigger = bad | inside  # also outside the class, but a larger mask
    masks = sorted({inside, bad, bigger, *below})
    monkeypatch.setattr(extremal, "_descend_to_ties",
                        lambda *args: (1.0, masks, len(masks), 1, 0))
    with pytest.raises(SolverError) as info:
        maximize_over_class(5, 2, 0.3, class_tag)
    assert info.value.diagnostics["mask"] == bad


@pytest.mark.parametrize("n", range(1, 7))
def test_in_class_matches_graph_tests(n):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    graphs = [Graph.from_edge_mask(n, int(m)) for m in masks]
    chi = np.array([chromatic_number(g) for g in graphs])
    for r in range(1, n + 2):
        free = np.array([not has_clique(g, r + 1) for g in graphs])
        in_class = {tag: extremal._in_class(masks, *extremal._mask_class(n, r, tag))
                    for tag in ("clique_free", "r_chromatic")}
        assert np.array_equal(in_class["clique_free"], free), r
        assert np.array_equal(in_class["r_chromatic"], chi <= r), r


# ---------------------------------------------------------------- oracle
# The labeled brute force: solve every class member, keep all within tie_tol
# of the maximum. maximize_over_class must agree with it exactly.

def _brute_force(n, r, alpha, class_tag, tie_tol=extremal.DEFAULT_TIE_TOL):
    members = extremal.class_member_masks(n, r, class_tag)
    us, vs = extremal._edge_arrays(n)
    tops = eigvalsh_batch(extremal._batch_alpha_matrices(members, n, alpha, us, vs))[:, 0]
    best = float(tops.max())
    ties = tuple(int(m) for m in members[tops >= best - tie_tol])
    return best, ties, int(members.size)


def _isomorphism_class_count(n, masks):
    """Distinct canonical forms, the least relabeled mask over all n! relabelings."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    shifts = np.array([[index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
                       for perm in itertools.permutations(range(n))])
    masks = np.array(masks, dtype=np.int64)
    bits = (masks[:, np.newaxis] >> np.arange(len(pairs))) & 1
    relabeled = bits.astype(np.float64) @ (2.0 ** shifts).T  # exact below 2**53
    return int(np.unique(relabeled.min(axis=1)).size)


def _bucket_dedupe(masks, n):
    """The dedupe the scan used before relabeling orbits: graphs bucketed by
    sorted degrees, each tested with are_isomorphic against the earlier
    representatives of its bucket. The representatives' masks, in order of
    first appearance."""
    buckets = {}
    reps = []
    for m in masks:
        g = Graph.from_edge_mask(n, int(m))
        bucket = buckets.setdefault(tuple(sorted(g.degrees)), [])
        if not any(are_isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
            reps.append(int(m))
    return reps


@pytest.mark.parametrize("n", range(1, 6))
def test_dedupe_matches_bucket_oracle_on_every_graph(n):
    masks = list(range(1 << (n * (n - 1) // 2)))
    reps = extremal._dedupe_isomorphic(masks, n)
    assert reps == _bucket_dedupe(masks, n)
    assert len(reps) == _isomorphism_class_count(n, masks)
    np.random.default_rng(n).shuffle(masks)
    assert extremal._dedupe_isomorphic(masks, n) == _bucket_dedupe(masks, n)


def _assert_matches_brute_force(n, r, alpha, class_tag):
    best, ties, size = _brute_force(n, r, alpha, class_tag)
    res = maximize_over_class(n, r, alpha, class_tag)
    case = (n, r, alpha, class_tag)
    assert res.max_radius == best, case
    assert res.maximizers == ties, case
    assert res.candidates_examined == size, case
    assert len(res.maximizer_reps) == _isomorphism_class_count(n, ties), case
    # test_descent_matches_brute_force runs (6, 5, 1.0, "r_chromatic"): 5,318 ties, 33 classes
    assert [g.edge_mask() for g in res.maximizer_reps] == _bucket_dedupe(ties, n), case


@pytest.mark.parametrize("class_tag", ["clique_free", "r_chromatic"])
@pytest.mark.parametrize("n", range(1, 7))
def test_descent_matches_brute_force(n, class_tag):
    for r in range(1, n + 2):
        for alpha in sorted({0.0, 0.3, 1.0 - 1.0 / r, 0.8, 1.0}):
            _assert_matches_brute_force(n, r, alpha, class_tag)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_descent_matches_brute_force_n7(alpha):
    _assert_matches_brute_force(7, 2, alpha, "clique_free")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), r_offset=st.integers(0, 5),
       alpha=st.floats(0.0, 1.0), class_tag=st.sampled_from(["clique_free", "r_chromatic"]))
def test_descent_matches_brute_force_random_alpha(n, r_offset, alpha, class_tag):
    _assert_matches_brute_force(n, 1 + r_offset % (n + 1), alpha, class_tag)


# ---------------------------------------------------------------- batch assembly
# Reference: the scan's stacked assembly with its own degree and diagonal
# code. _batch_alpha_matrices must match it, and the single-graph alpha_matrix,
# byte for byte.

def _loop_batch_alpha_matrices(masks, n, alpha, us, vs):
    bits = ((masks[:, np.newaxis] >> np.arange(us.size)[np.newaxis, :]) & 1
            ).astype(np.float64)
    adj = np.zeros((masks.size, n, n))
    adj[:, us, vs] = bits
    adj[:, vs, us] = bits
    out = (1.0 - alpha) * adj
    idx = np.arange(n)
    out[:, idx, idx] = alpha * adj.sum(axis=2)
    return out


def test_batch_alpha_matrices_bytes_match(rng):
    for n in range(1, 8):
        us, vs = extremal._edge_arrays(n)
        masks = rng.integers(0, 1 << us.size, size=50).astype(np.int64)
        for alpha in (0.0, 1.0 / 3.0, 0.5, 1.0 - 2.0 ** -53, 1.0):
            got = extremal._batch_alpha_matrices(masks, n, alpha, us, vs)
            want = _loop_batch_alpha_matrices(masks, n, alpha, us, vs)
            assert got.tobytes() == want.tobytes(), (n, alpha)
            single = np.array([alpha_matrix(Graph.from_edge_mask(n, int(m)), alpha)
                               for m in masks])
            assert got.tobytes() == single.tobytes(), (n, alpha)


# ---------------------------------------------------------------- screen
# The descent as it was before the Collatz-Wielandt screen: every mask of
# every level is solved. The screened descent must find the same maximum,
# bit for bit, the same tie set, and solve or screen exactly the masks this
# one solves.

def _unscreened_descend_to_ties(maximal_masks, n, alpha, tie_tol):
    us, vs = extremal._edge_arrays(n)
    bit = np.int64(1) << np.arange(us.size, dtype=np.int64)
    level = maximal_masks
    maximal = int(level.size)
    seen = np.zeros(1 << us.size, dtype=bool)
    found_masks, found_tops = [], []
    best = -np.inf
    solved = 0
    while level.size:
        seen[level] = True
        tops = extremal.eigvalsh_batch(
            extremal._batch_alpha_matrices(level, n, alpha, us, vs))[:, 0]
        solved += level.size
        best = max(best, float(tops.max()))
        near = tops >= best - tie_tol
        tied = level[near]
        found_masks.append(tied)
        found_tops.append(tops[near])
        # every tied graph with one of its edges deleted
        children = np.unique((tied[:, np.newaxis] ^ bit)[(tied[:, np.newaxis] & bit) != 0])
        level = children[~seen[children]]
    masks = np.concatenate(found_masks)
    # a later level may have raised best past some earlier ties
    keep = np.concatenate(found_tops) >= best - tie_tol
    return best, np.sort(masks[keep]).tolist(), solved, maximal


# 0, the alpha at which LAPACK's values-only path fails, the regimes on both
# sides of every boundary, the last float below 1, and 1
SCREEN_ALPHAS = (0.0, 6.692927171766018e-161, 0.05, 0.2, 0.3, 0.45, 0.55, 0.7,
                 0.8, 0.95, 1.0 - 2.0 ** -53, 1.0)


def _screen_alphas(n, r):
    alphas = sorted({*SCREEN_ALPHAS, 1.0 - 1.0 / r})
    if n == 7 and r >= 3:
        # at alpha >= 1 - 2^-53 every graph with a dominating vertex ties
        # (up to 209,868 masks, about 10 s per case for the two descents)
        alphas = [a for a in alphas if a < 1.0 - 2.0 ** -53]
    return alphas


@pytest.mark.parametrize("class_tag", ["clique_free", "r_chromatic"])
@pytest.mark.parametrize("n", range(1, 8))
def test_screened_descent_matches_unscreened(n, class_tag):
    for r in range(1, n + 2):
        maximal_masks = extremal._maximal_member_masks(_table(n, r, class_tag), n)
        for alpha in _screen_alphas(n, r):
            # with tie_tol = 0 only the slack keeps a tie whose bound rounds low
            for tie_tol in (extremal.DEFAULT_TIE_TOL, 0.0) if n < 7 else (extremal.DEFAULT_TIE_TOL,):
                case = (n, r, alpha, tie_tol)
                best, ties, solved, maximal, screened = extremal._descend_to_ties(
                    maximal_masks, n, alpha, tie_tol)
                want = _unscreened_descend_to_ties(maximal_masks, n, alpha, tie_tol)
                assert best.hex() == want[0].hex(), case
                assert ties == want[1], case
                assert solved + screened == want[2], case
                assert maximal == want[3], case


@pytest.mark.parametrize("n,r", [(5, 2), (5, 4), (6, 2), (6, 3), (7, 2)])
def test_screened_scan_reps_match_unscreened(monkeypatch, n, r):
    for class_tag in ("clique_free", "r_chromatic"):
        for alpha in (0.0, 0.3, 1.0 - 1.0 / r, 0.8, 1.0):
            got = maximize_over_class(n, r, alpha, class_tag)
            with monkeypatch.context() as m:
                m.setattr(extremal, "_descend_to_ties",
                          lambda *args: (*_unscreened_descend_to_ties(*args), 0))
                want = maximize_over_class(n, r, alpha, class_tag)
            case = (n, r, alpha, class_tag)
            assert got.max_radius.hex() == want.max_radius.hex(), case
            assert got.maximizers == want.maximizers, case
            assert [g.edges for g in got.maximizer_reps] == \
                [g.edges for g in want.maximizer_reps], case
            assert got.matrices_solved + got.screened == want.matrices_solved, case


def _solved_masks(mats, n):
    """Edge masks of a stack of M(alpha) with alpha < 1, read off the
    off-diagonal pattern."""
    us, vs = extremal._edge_arrays(n)
    return ((mats[:, us, vs] != 0) * (1 << np.arange(us.size))).sum(axis=1)


@pytest.mark.parametrize("n,r,alpha,class_tag", [(7, 2, 0.3, "clique_free"),
                                                 (7, 2, 0.7, "clique_free"),
                                                 (6, 3, 0.4, "clique_free"),
                                                 (6, 3, 0.9, "r_chromatic"),
                                                 (5, 2, 0.0, "clique_free")])
def test_screened_counts_masks_left_unsolved(monkeypatch, n, r, alpha, class_tag):
    calls = []
    real = extremal.eigvalsh_batch

    def spy(mats):
        calls.append(_solved_masks(mats, n))
        return real(mats)

    monkeypatch.setattr(extremal, "eigvalsh_batch", spy)
    table = _table(n, r, class_tag)
    _unscreened_descend_to_ties(extremal._maximal_member_masks(table, n), n, alpha,
                                extremal.DEFAULT_TIE_TOL)
    visited = set(np.concatenate(calls).tolist())
    calls.clear()
    res = maximize_over_class(n, r, alpha, class_tag)
    solved = np.concatenate(calls).tolist()
    assert len(set(solved)) == len(solved) == res.matrices_solved  # none twice
    assert set(solved) <= visited
    unsolved = visited - set(solved)
    assert res.screened == len(unsolved) > 0
    maximal = set(extremal._maximal_member_masks(table, n).tolist())
    assert maximal <= visited
    assert res.maximal_members == len(maximal & unsolved) + len(maximal & set(solved))
    if class_tag == "clique_free":
        check = verify_turan(n, r, [alpha]).to_json_obj()["checks"][0]
        assert (check["solved"], check["screened"], check["maximal"]) == \
            (res.matrices_solved, res.screened, res.maximal_members)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.0, 1.0))
@example(alpha=0.0)
@example(alpha=6.692927171766018e-161)
@example(alpha=0.5)
@example(alpha=1.0 - 2.0 ** -53)
@example(alpha=1.0)
def test_radius_upper_bound_holds_on_every_graph(alpha):
    # every labeled graph on n <= 6 vertices: the members of every class
    # table, isolated vertices, disconnected and edgeless graphs included
    for n in range(1, 7):
        us, vs = extremal._edge_arrays(n)
        masks = np.arange(1 << us.size, dtype=np.int64)
        mats = extremal._batch_alpha_matrices(masks, n, alpha, us, vs)
        tops = eigvalsh_batch(mats)[:, 0]
        bound = extremal._radius_upper_bounds(mats, alpha)
        gap = tops - bound
        assert np.all(gap <= 1e-12 * np.maximum(1.0, tops)), (n, alpha, gap.max())
    # a matching plus an isolated vertex, and two disjoint triangles
    for g in (Graph(5, ((0, 1), (2, 3))),
              Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))):
        mat = alpha_matrix(g, alpha)[np.newaxis]
        top = eigenvalues_only(mat[0])[0]
        assert extremal._radius_upper_bounds(mat, alpha)[0] >= top - 1e-12 * max(1.0, top)


@pytest.mark.parametrize("tie_tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_bad_tie_tol_rejected(tie_tol):
    for class_tag in extremal.CLASS_TAGS:
        with pytest.raises(ParameterError, match="tie_tol"):
            maximize_over_class(5, 2, 0.3, class_tag, tie_tol=tie_tol)
    with pytest.raises(ParameterError, match="tie_tol"):
        verify_turan(5, 2, [0.3], tie_tol=tie_tol)
    with pytest.raises(ParameterError, match="tie_tol"):
        verify_turan(5, 2, [], tie_tol=tie_tol)


def test_zero_tie_tol_accepted():
    out = verify_turan(5, 2, [0.2, 0.8], tie_tol=0.0)
    assert out.ok and all(c.maximizer_edge_lists for c in out.checks)


# ---------------------------------------------------------------- one build per call
# verify_turan builds the class once and scans every alpha with it; each check
# must be exactly what a call with that alpha alone reports.

@pytest.mark.parametrize("n", range(3, 8))
def test_multi_alpha_checks_match_single_alpha(n):
    for r in range(2, n):
        alphas = [a for a in _screen_alphas(n, r) if a < 1.0]
        for tie_tol in (extremal.DEFAULT_TIE_TOL, 0.0):
            many = verify_turan(n, r, alphas, tie_tol=tie_tol).to_json_obj()["checks"]
            assert len(many) == len(alphas)
            for a, got in zip(alphas, many):
                want = verify_turan(n, r, [a], tie_tol=tie_tol).to_json_obj()["checks"][0]
                case = (n, r, a, tie_tol)
                assert got.keys() == want.keys(), case
                for key in got.keys() - {"elapsed_ms"}:
                    g, w = got[key], want[key]
                    if isinstance(w, float):
                        assert isinstance(g, float) and g.hex() == w.hex(), (case, key)
                    else:
                        assert g == w, (case, key)


def test_class_built_once_per_call(monkeypatch, capsys):
    from alphaspec import cli

    calls = []
    real = extremal._class_table

    def spy(n, seeds, up):
        calls.append((n, seeds.tolist(), up))
        return real(n, seeds, up)

    monkeypatch.setattr(extremal, "_class_table", spy)
    out = verify_turan(6, 2, [0.3, 0.5, 0.8])
    assert out.ok and len(out.checks) == 3
    triangles = sorted(_clique_edge_masks(6, 3))
    assert calls == [(6, triangles, True)]
    calls.clear()
    # the boundary's expected tie set reads the r_chromatic seeds, not a table
    assert verify_turan(6, 2, [0.5]).ok
    assert calls == [(6, triangles, True)]
    calls.clear()
    assert verify_turan(6, 2, []).checks == ()
    for alphas in ([1.0, 0.3], [0.3, 1.0], [0.3, 2.0]):
        with pytest.raises(ParameterError):
            verify_turan(6, 2, alphas)
    with pytest.raises(CapacityError):
        verify_turan(8, 2, [0.3])
    assert cli.main(["verify-turan", "--n", "8", "--r", "2", "--alphas", "0.3"]) == 65
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


# ---------------------------------------------------------------- exact outputs
# Fields of verify_turan and maximize_over_class that no float rounding can
# move, pinned: (regime, status, examined, maximal, the edge masks of the
# maximizer representatives) at alpha = 0.2, 1 - 1/r and 0.9.

PINNED_TURAN = {
    (3, 2): [("turan", "ok", 7, 3, (3,)), ("tie", "ok", 7, 3, (3,)),
             ("split", "ok", 7, 3, (3,))],
    (4, 2): [("turan", "ok", 41, 7, (30,)), ("tie", "ok", 41, 7, (7, 30)),
             ("split", "ok", 41, 7, (7,))],
    (4, 3): [("turan", "ok", 63, 6, (31,)), ("tie", "ok", 63, 6, (31,)),
             ("split", "ok", 63, 6, (31,))],
    (5, 2): [("turan", "ok", 388, 27, (126,)), ("tie", "ok", 388, 27, (15, 126)),
             ("split", "ok", 388, 27, (15,))],
    (5, 3): [("turan", "ok", 958, 25, (495,)), ("tie", "ok", 958, 25, (127, 495)),
             ("split", "ok", 958, 25, (127,))],
    (5, 4): [("turan", "ok", 1023, 10, (511,)), ("tie", "ok", 1023, 10, (511,)),
             ("split", "ok", 1023, 10, (511,))],
    (6, 2): [("turan", "ok", 5789, 211, (4060,)), ("tie", "ok", 5789, 211, (31, 510, 4060)),
             ("split", "ok", 5789, 211, (31,))],
    (6, 3): [("turan", "ok", 27626, 162, (15870,)),
             ("tie", "ok", 27626, 162, (511, 4063, 15870)),
             ("split", "ok", 27626, 162, (511,))],
    (6, 4): [("turan", "ok", 32596, 65, (15871,)), ("tie", "ok", 32596, 65, (4095, 15871)),
             ("split", "ok", 32596, 65, (4095,))],
    (6, 5): [("turan", "ok", 32767, 15, (16383,)), ("tie", "ok", 32767, 15, (16383,)),
             ("split", "ok", 32767, 15, (16383,))],
}

# the 90 labeled complete 3-partite graphs on 6 vertices, tied at the float below 2/3
PINNED_TRIPARTITE_6 = (
    511, 3647, 4063, 4067, 4093, 4094, 12895, 13247, 13285, 13307, 13310, 15487,
    15775, 15847, 15865, 15870, 15974, 15995, 15997, 16295, 16314, 16317, 16327,
    16347, 16348, 21663, 21887, 21993, 22007, 22014, 23231, 23391, 23531, 23541,
    23550, 24234, 24247, 24253, 24427, 24438, 24445, 24523, 24535, 24540, 26335,
    26431, 26605, 26611, 26622, 26879, 26911, 27119, 27121, 27134, 28398, 28403,
    28413, 28463, 28466, 28477, 28623, 28627, 28636, 30412, 30423, 30427, 30573,
    30582, 30587, 30637, 30647, 30650, 31470, 31477, 31483, 31567, 31572, 31579,
    31663, 31669, 31674, 31982, 31991, 31993, 32111, 32118, 32121, 32143, 32151,
    32152)

# one representative per class of 6-vertex graphs with a dominating vertex, K6 excluded
PINNED_DOMINATED_6 = (
    31, 63, 127, 255, 511, 639, 671, 703, 767, 927, 959, 1023, 1759, 1791, 1887,
    1919, 2015, 2047, 4063, 4095, 5887, 5919, 5951, 6015, 6143, 6655, 7071, 7103,
    7167, 8159, 8191, 15871, 16383)


def _edge_lists(n, masks):
    return tuple(Graph.from_edge_mask(n, m).edges for m in masks)


@pytest.mark.parametrize("n,r", sorted(PINNED_TURAN))
def test_verify_turan_exact_fields_pinned(n, r):
    out = verify_turan(n, r, [0.2, 1.0 - 1.0 / r, 0.9])
    got = [(c.regime, c.status, c.examined, c.maximal, c.maximizer_edge_lists)
           for c in out.checks]
    assert got == [(*row[:4], _edge_lists(n, row[4])) for row in PINNED_TURAN[n, r]]


def test_r_chromatic_exact_fields_pinned():
    res = maximize_over_class(6, 3, 2.0 / 3.0, "r_chromatic")
    assert res.maximizers == PINNED_TRIPARTITE_6
    assert (res.candidates_examined, res.maximal_members) == (27554, 90)
    assert tuple(g.edges for g in res.maximizer_reps) == _edge_lists(6, (511, 4063, 15870))
    # at alpha = 1, M is D: every 5-colorable graph with a vertex of degree 5 ties
    res = maximize_over_class(6, 5, 1.0, "r_chromatic")
    us, vs = extremal._edge_arrays(6)
    masks = np.arange(1 << 15, dtype=np.int64)
    bits = (masks[:, np.newaxis] >> np.arange(15)) & 1
    degrees = np.stack([bits[:, (us == v) | (vs == v)].sum(axis=1) for v in range(6)], axis=1)
    dominated = masks[(degrees.max(axis=1) == 5) & (masks != (1 << 15) - 1)]
    assert len(res.maximizers) == 5318
    assert res.maximizers == tuple(dominated.tolist())
    assert (res.candidates_examined, res.maximal_members) == (32767, 15)
    assert tuple(g.edges for g in res.maximizer_reps) == _edge_lists(6, PINNED_DOMINATED_6)


# ---------------------------------------------------------------- table slices

def _unsliced_table_masks(words):
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return np.flatnonzero(bits.view(bool)).astype(np.int64, copy=False)


@pytest.mark.parametrize("chunk", [1, 3, 1 << 10])
def test_table_slices_match_whole_table(monkeypatch, chunk):
    for n in range(1, 8):
        for class_tag in ("clique_free", "r_chromatic"):
            table = _table(n, 2, class_tag)
            want = _unsliced_table_masks(table)
            want_maximal = extremal._maximal_member_masks(table, n)  # one slice at n <= 7
            with monkeypatch.context() as m:
                m.setattr(extremal, "TABLE_CHUNK_WORDS", chunk)
                # the closure's low-bit passes run per slice too
                assert np.array_equal(_table(n, 2, class_tag), table), (n, class_tag)
                got = extremal._table_masks(table)
                assert got.dtype == np.int64 and np.array_equal(got, want), (n, class_tag)
                assert extremal._table_count(table) == want.size, (n, class_tag)
                assert np.array_equal(extremal._maximal_member_masks(table, n), want_maximal)


def test_table_count_n8_spans_many_slices():
    # 2^22 words, 128 slices of TABLE_CHUNK_WORDS
    table = _table(8, 2, "clique_free")
    assert table.size > extremal.TABLE_CHUNK_WORDS
    assert extremal._table_count(table) == TRIANGLE_FREE[8]


def test_table_build_n8_peak_memory():
    """The 32 MiB n=8 table is built with temporaries of one slice, not of
    the whole table: whole-table passes grew the peak RSS by about 65 MiB."""
    code = ("import resource\n"
            "from alphaspec import extremal\n"
            "seeds, up = extremal._mask_class(8, 2, 'clique_free')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "table = extremal._class_table(8, seeds, up)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    assert int(_run_fresh(code)) < 48 * 1024  # KiB on Linux


# ---------------------------------------------------- complete multipartite parts

def _cocomponent_parts(g):
    """The former re-check, kept as the oracle: the part sizes are the
    complement's component sizes, and g must be isomorphic to the complete
    multipartite graph with those parts."""
    co = Graph(g.n, tuple(p for p in edge_order(g.n) if not g.has_edge(*p)))
    parts = tuple(sorted((len(vs) for _, vs in components(co)), reverse=True))
    return parts if are_isomorphic(g, complete_multipartite(parts)) else None


def test_multipartite_parts_match_cocomponent_oracle_on_every_small_graph():
    checked = 0
    for n in range(1, 7):
        for m in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, m)
            assert extremal._multipartite_parts(g) == _cocomponent_parts(g), (n, m)
            checked += 1
    assert checked == 33867
    # every vertex of P4 has its own neighbour set, as in K4
    assert extremal._multipartite_parts(path(4)) is None


def test_multipartite_parts_match_cocomponent_oracle_on_relabeled_graphs(rng):
    for _ in range(300):
        n = int(rng.integers(2, 41))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        parts = np.diff(np.concatenate(([0], cuts, [n])))
        g = complete_multipartite(parts)
        perm = rng.permutation(n)
        edges = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        shuffled = Graph(n, tuple(edges))
        assert extremal._multipartite_parts(shuffled) == tuple(sorted(parts, reverse=True))
        assert _cocomponent_parts(shuffled) == tuple(sorted(parts, reverse=True))
        if edges:
            # None, unless the deleted edge joined two parts of size one
            del edges[int(rng.integers(len(edges)))]
            cut = Graph(n, tuple(edges))
            assert extremal._multipartite_parts(cut) == _cocomponent_parts(cut)


@pytest.mark.parametrize("n,r,ties", [(50, 2, 25), (24, 3, 48)])
def test_partition_search_ties_every_r_part_partition_at_the_boundary(n, r, ties):
    a = 1.0 - 1.0 / r
    res = maximize_over_class(n, r, a, "complete_multipartite")
    want = sorted(p for p in integer_partitions(n, r) if len(p) == r)
    assert len(want) == ties
    assert sorted(extremal._multipartite_parts(g) for g in res.maximizer_reps) == want
    assert len(res.maximizers) == ties
    assert res.max_radius == pytest.approx(a * n, abs=1e-9)
    for g in res.maximizer_reps:
        top = float(eigenvalues_only(alpha_matrix(g, a))[0])
        assert top == pytest.approx(res.max_radius, abs=1e-9)


@pytest.mark.parametrize("swap", [
    pytest.param({(4, 2): path(6), (3, 3): cycle(6)}, id="not-multipartite"),
    pytest.param({(4, 2): complete_multipartite((2, 2, 2)), (3, 3): cycle(6)}, id="too-many-parts"),
])
def test_partition_recheck_reports_first_graph_outside_the_class(monkeypatch, swap):
    # at alpha = 1/2 the ties come in search order (5, 1), (4, 2), (3, 3)
    build = extremal.complete_multipartite
    monkeypatch.setattr(extremal, "complete_multipartite",
                        lambda parts: swap.get(tuple(parts)) or build(parts))
    with pytest.raises(SolverError, match="outside the class") as info:
        maximize_over_class(6, 2, 0.5, "complete_multipartite")
    assert info.value.diagnostics["mask"] == swap[(4, 2)].edge_mask()


def test_scans_do_not_import_numpy_ma():
    """numpy 2.4's np.unique imports numpy.ma on first use (np.isin calls it),
    10-27 ms in a fresh process; a scan uses neither."""
    code = ("import sys\n"
            "from alphaspec import cli, extremal\n"
            "assert cli.main(['verify-turan', '--n', '7', '--r', '2',"
            " '--alphas', '0.3,0.5,0.8']) == 0\n"
            "extremal.maximize_over_class(7, 2, 0.5, 'r_chromatic')\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _run_fresh(code) == "False"


def _run_fresh(code):
    """The last line code prints when run in a fresh interpreter."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]
