import math

import numpy as np
import pytest

from alphaspec import (Graph, ParameterError, SolverError, alpha_matrix,
                       alpha_sweep, assemble, complete, complete_bipartite,
                       cycle, decompose, disjoint_union, distinct_count,
                       edgeless, eigenvalues_only, eigvalsh_batch,
                       extreme_pair, full_spectrum, path, psd_threshold, star)
import alphaspec.eigensolver as eigensolver
from alphaspec.eigensolver import AlphaSweep
from alphaspec.graphs import components
from conftest import rand_connected, rand_graph


def random_symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def test_matches_numpy_on_random_symmetric(rng):
    for _ in range(250):
        n = int(rng.integers(1, 31))
        m = random_symmetric(rng, n, scale=float(10.0 ** rng.integers(-2, 3)))
        got = eigenvalues_only(m)
        want = np.linalg.eigvalsh(m)[::-1]
        scale = max(1.0, float(np.abs(want).max()))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_matches_numpy_on_graph_matrices(rng):
    for _ in range(250):
        n = int(rng.integers(1, 26))
        g = rand_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        m = alpha_matrix(g, float(rng.random()))
        got = eigenvalues_only(m)
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, n)


def test_decompose_residual_and_orthogonality(rng):
    for _ in range(60):
        n = int(rng.integers(2, 25))
        m = random_symmetric(rng, n)
        vals, vecs = decompose(m)
        resid = np.abs(m @ vecs - vecs * vals).max()
        assert resid <= 1e-11 * max(1.0, float(np.abs(vals).max()))
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12


def test_values_descending_and_read_only():
    s = full_spectrum(alpha_matrix(cycle(5), 0.3))
    assert all(s.values[i] >= s.values[i + 1] for i in range(4))
    with pytest.raises(ValueError):
        s.values[0] = 99.0


def test_known_small_spectra():
    s = full_spectrum(assemble(path(3), "adjacency"))
    assert np.allclose(s.values, [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-12)
    s = full_spectrum(alpha_matrix(complete(3), 0.5))
    assert np.allclose(s.values, [2.0, 0.5, 0.5], atol=1e-12)
    # 4-cycle adjacency: 2, 0, 0, -2
    s = full_spectrum(assemble(cycle(4), "adjacency"))
    assert np.allclose(s.values, [2.0, 0.0, 0.0, -2.0], atol=1e-12)


def test_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ParameterError):
        full_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        full_spectrum(np.zeros((2, 3)))
    for bad in (np.zeros(()), np.zeros(3), np.zeros((1, 2, 2))):  # a stack of one is not one matrix
        for solve in (decompose, eigenvalues_only):
            with pytest.raises(ParameterError):
                solve(bad)


def test_sign_convention_deterministic(rng):
    m = random_symmetric(rng, 8)
    vals, v1 = decompose(m)
    _, v2 = decompose(m.copy())
    assert np.array_equal(v1, v2)
    # sign flips must leave the vectors eigenvectors
    assert np.abs(m @ v1 - v1 * vals).max() <= 1e-12 * max(1.0, float(np.abs(vals).max()))
    # largest-magnitude entry of each eigenvector is positive
    for k in range(8):
        col = v1[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_extreme_pair_perron_positive(rng):
    for _ in range(20):
        g = rand_connected(rng, int(rng.integers(2, 12)), extra=3)
        top = extreme_pair(alpha_matrix(g, 0.4), which="largest")
        vec = top.vector
        vec = vec if vec[int(np.argmax(np.abs(vec)))] > 0 else -vec
        assert np.all(vec > 1e-12)
        bottom = extreme_pair(alpha_matrix(g, 0.4), which="smallest")
        assert bottom.value <= top.value


def _loop_distinct_count(s, cluster_tol=1e-8):
    if s.n == 0:
        return 0
    gap = cluster_tol * max(1.0, s.spread())
    count = 1
    for i in range(1, s.n):
        if s.values[i - 1] - s.values[i] > gap:
            count += 1
    return count


def test_distinct_count(rng):
    s = full_spectrum(alpha_matrix(complete(5), 0.2))
    assert distinct_count(s) == 2
    s = full_spectrum(alpha_matrix(path(4), 0.3))
    assert distinct_count(s) == 4
    s = full_spectrum(np.zeros((3, 3)))
    assert distinct_count(s) == 1
    for _ in range(200):
        g = rand_graph(rng, int(rng.integers(0, 13)), float(rng.random()))
        s = full_spectrum(alpha_matrix(g, float(rng.choice([0.0, 0.5, rng.random()]))))
        for tol in (1e-8, 1e-3):
            assert distinct_count(s, tol) == _loop_distinct_count(s, tol)


def test_psd_threshold_complete_graphs():
    for n in range(2, 12):
        assert psd_threshold(complete(n)) == pytest.approx(1.0 / n, abs=1e-8)


def test_psd_threshold_odd_cycle():
    assert psd_threshold(cycle(5)) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-8)


def test_psd_threshold_bipartite_is_half():
    # bipartite graphs have a zero eigenvalue of the signless Laplacian
    for g in (path(4), cycle(6), complete_bipartite(2, 5), star(7)):
        assert psd_threshold(g) == pytest.approx(0.5, abs=1e-10)
    assert psd_threshold(edgeless(4)) == 0.0


def test_psd_threshold_ignores_isolated_vertices():
    # an isolated vertex pins the smallest eigenvalue at 0 for every alpha
    paw = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert psd_threshold(disjoint_union([paw, edgeless(1)])) == psd_threshold(paw)
    assert psd_threshold(paw) == pytest.approx(0.4215351653983817, abs=1e-9)
    c5_2k1 = disjoint_union([edgeless(1), cycle(5), edgeless(1)])
    assert psd_threshold(c5_2k1) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)


def _bisection_psd_threshold(g, tol=1e-10):
    """The earlier bisection on the smallest eigenvalue, kept as the oracle:
    isolated vertices dropped, then lambda_min(M(alpha)), nondecreasing in
    alpha, is bisected on [0, 1] until it is within tol of zero."""
    if g.m == 0:
        return 0.0
    g = disjoint_union(c for c, _ in components(g) if c.m)

    def lam_min(a):
        return float(np.linalg.eigvalsh(alpha_matrix(g, a))[0])

    if lam_min(0.0) >= -tol:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = lam_min(mid)
        if abs(f) <= tol:
            return mid
        if f < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lam_min_without_isolated(g, a):
    keep = [v for v in range(g.n) if g.degrees[v]]
    return float(np.linalg.eigvalsh(alpha_matrix(g, a)[np.ix_(keep, keep)])[0])


def _psd_corpus():
    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_mask(n, mask)
            if g.min_degree() > 0:
                yield g
    rng = np.random.default_rng(20240512)
    for _ in range(200):
        yield rand_graph(rng, int(rng.integers(6, 41)), float(rng.uniform(0.05, 0.95)))
    yield path(400)
    yield cycle(401)


def test_psd_threshold_matches_bisection_oracle():
    # every labeled graph on 2..5 vertices without an isolated vertex (814),
    # 200 seeded G(n, p) with n in [6, 40], a long path and a long odd cycle
    for g in _psd_corpus():
        t = psd_threshold(g)
        assert abs(t - _bisection_psd_threshold(g)) <= 1e-8, g
        if g.m:
            assert abs(_lam_min_without_isolated(g, t)) <= 1e-10, g


def test_psd_threshold_max_over_components():
    # the bipartite component wins: K4 alone gives 1/4
    assert psd_threshold(disjoint_union([complete(4), path(3)])) == pytest.approx(0.5, abs=1e-10)
    # K3 alone gives 1/3, C5 alone 1/sqrt(5)
    assert psd_threshold(disjoint_union([complete(3), cycle(5)])) == pytest.approx(
        1.0 / math.sqrt(5.0), abs=1e-10)
    assert psd_threshold(disjoint_union([complete(2), edgeless(3)])) == pytest.approx(
        0.5, abs=1e-12)


def test_psd_threshold_raises_when_check_misses_tol(monkeypatch):
    real = eigensolver.alpha_matrix
    monkeypatch.setattr(eigensolver, "alpha_matrix",
                        lambda g, a: real(g, a) + 1e-6 * np.eye(g.n))
    with pytest.raises(SolverError) as info:
        psd_threshold(cycle(5))
    diag = info.value.diagnostics
    assert set(diag) == {"threshold", "lam_min", "tol"}
    assert diag["threshold"] == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    assert diag["lam_min"] == pytest.approx(1e-6, abs=1e-12)
    assert diag["tol"] == 1e-10


def test_alpha_sweep_csv_and_quotients():
    sw = alpha_sweep(path(3), [0.0, 0.5, 1.0])
    lines = sw.to_csv().splitlines()
    assert lines[0] == "alpha,lambda_1,lambda_2,lambda_3"
    assert len(lines) == 4
    assert isinstance(sw, AlphaSweep)
    dq = sw.difference_quotients()
    assert dq.shape == (2, 3)
    # top eigenvalue slope is bounded by n
    assert np.all(np.abs(dq) <= 3.0 + 1e-9)
    with pytest.raises(ParameterError):
        alpha_sweep(path(3), [])
    with pytest.raises(ParameterError):
        alpha_sweep(path(3), [0.5, 0.2])


def test_eigvalsh_batch_agrees_with_single_solves(rng):
    mats = []
    for _ in range(300):
        n = 7
        g = rand_graph(rng, n, float(rng.uniform(0.05, 0.95)))
        mats.append(alpha_matrix(g, float(rng.random())))
    batch = eigvalsh_batch(np.array(mats))
    for row, m in zip(batch, mats):
        assert np.max(np.abs(row - eigenvalues_only(m))) <= 1e-10
    # also a tiny-entry batch, far below unit scale
    tiny = np.array([random_symmetric(rng, 5, scale=1e-8) for _ in range(10)])
    batch = eigvalsh_batch(tiny)
    for row, m in zip(batch, tiny):
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(row - want)) <= 1e-12


def test_eigvalsh_batch_shapes():
    one = eigvalsh_batch(np.zeros((2, 2)))
    assert one.shape == (1, 2)
    empty = eigvalsh_batch(np.zeros((0, 3, 3)))
    assert empty.shape == (0, 3)
    for bad in (np.zeros((2, 3, 4)), np.zeros(()), np.zeros(3), np.zeros((1, 1, 2, 2))):
        with pytest.raises(ParameterError):
            eigvalsh_batch(bad)


def test_eigvalsh_batch_rejects_asymmetric():
    # LAPACK reads one triangle only, so this would otherwise solve as [[0, 0]]
    with pytest.raises(ParameterError):
        eigvalsh_batch(np.array([[0.0, 5.0], [0.0, 0.0]]))
    stack = np.zeros((3, 4, 4))
    stack[2, 0, 3] = 1.0
    with pytest.raises(ParameterError):
        eigvalsh_batch(stack)


def test_values_only_solve_falls_back_to_eigh():
    # LAPACK's values-only path returns wrong eigenvalues for this matrix
    m = alpha_matrix(Graph.from_edge_mask(8, 1131), 6.692927171766018e-161)
    want = np.linalg.eigh(m)[0][::-1]
    assert np.array_equal(eigenvalues_only(m), want)
    assert np.array_equal(eigvalsh_batch(np.stack([m, m]))[1], want)


def test_identity_failure_after_fallback_raises(monkeypatch):
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1.0)
    m = alpha_matrix(cycle(5), 0.3)
    # the fallback repairs what the values-only path got wrong
    assert np.allclose(eigenvalues_only(m), eigvalsh(m)[::-1], atol=1e-12)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + 1.0, eigh(a)[1]))
    with pytest.raises(SolverError, match="^trace identity violated") as info:
        eigenvalues_only(m)
    assert set(info.value.diagnostics) == {"trace", "eigensum"}
    with pytest.raises(SolverError, match="^trace identity violated"):
        eigvalsh_batch(np.stack([np.eye(5), m]))


@pytest.mark.parametrize("patched", ["eigh", "eigvalsh"])
@pytest.mark.parametrize("shift,message,keys", [
    ([1.0, 0.0, 0.0, 0.0, 0.0], "trace identity violated", {"trace", "eigensum"}),
    ([0.5, -0.5, 0.0, 0.0, 0.0], "squared trace identity violated",
     {"trace2", "eigensum2"}),
])
def test_single_matrix_check_reports_shifted_values(monkeypatch, patched, shift,
                                                    message, keys):
    """Shifted values break the trace identity; a sum-preserving shift breaks
    only the squared one. eigenvalues_only retries through eigh, so its check
    raises only when eigh is wrong too."""
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    shift = np.array(shift)
    if patched == "eigh":
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + shift, eigh(a)[1]))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + shift)
    m = alpha_matrix(cycle(5), 0.3)
    solvers = (decompose, full_spectrum, eigenvalues_only) if patched == "eigh" else ()
    for solve in solvers:
        with pytest.raises(SolverError, match=f"^{message}") as info:
            solve(m)
        assert set(info.value.diagnostics) == keys
    if patched == "eigvalsh":
        assert np.allclose(eigenvalues_only(m), eigvalsh(m)[::-1], atol=1e-12)


# ---------------------------------------------------------------- oracle
# The parent formulas of the single-matrix solve, kept as written: the scalar
# identity check and the residual's sqrt of the largest squared norm must
# leave every value, vector and residual bit for bit as they were.

def _oracle_decompose(mat):
    values, vectors = np.linalg.eigh(mat)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    rows = np.argmax(np.abs(vectors), axis=0)
    peak = vectors[rows, np.arange(vectors.shape[1])]
    return values, vectors * np.where(peak < 0.0, -1.0, 1.0)


def _oracle_residual(mat, values, vectors):
    resid = mat @ vectors - vectors * values[np.newaxis, :]
    return float(np.sqrt((resid * resid).sum(axis=0)).max())


def _solve_corpus():
    for n in range(1, 6):  # every labeled graph on 1 <= n <= 5 vertices
        for mask in range(1 << (n * (n - 1) // 2)):
            yield Graph.from_edge_mask(n, mask)
    rng = np.random.default_rng(20261019)
    yield rand_graph(rng, 40, 0.5)
    yield rand_graph(rng, 120, 0.5)


def test_single_matrix_solves_match_parent_formulas():
    for g in _solve_corpus():
        for a in (0.0, 0.3, 0.5, 1.0 - 2.0 ** -53, 1.0):
            m = alpha_matrix(g, a)
            want_values, want_vectors = _oracle_decompose(m)
            values, vectors = decompose(m)
            assert values.tobytes() == want_values.tobytes(), (g.n, g.edges, a)
            assert vectors.tobytes() == want_vectors.tobytes(), (g.n, g.edges, a)
            s = full_spectrum(m)
            assert s.values.tobytes() == want_values.tobytes()
            assert s.residual_norm == _oracle_residual(m, want_values, want_vectors)
            only = np.linalg.eigvalsh(m)[::-1]
            assert eigenvalues_only(m).tobytes() == only.tobytes(), (g.n, g.edges, a)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_entries(bad):
    m = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ParameterError):
        eigenvalues_only(m)
    with pytest.raises(ParameterError):
        full_spectrum(m)
    with pytest.raises(ParameterError):
        eigvalsh_batch(np.stack([np.eye(2), m]))


def test_spectrum_invariant_under_relabeling(rng):
    g = rand_connected(rng, 9, extra=4)
    perm = rng.permutation(9)
    relabeled = [(int(perm[u]), int(perm[v])) for u, v in g.edges]
    h = Graph(9, tuple(relabeled))
    a = 0.45
    assert np.allclose(eigenvalues_only(alpha_matrix(g, a)),
                       eigenvalues_only(alpha_matrix(h, a)), atol=1e-11)


def test_component_union_spectrum(rng):
    # the spectrum of a disjoint union is the multiset union of the parts
    g1 = rand_connected(rng, 5, extra=2)
    g2 = rand_connected(rng, 4, extra=1)
    u = disjoint_union([g1, g2])
    a = 0.6
    merged = np.sort(np.concatenate([
        eigenvalues_only(alpha_matrix(g1, a)),
        eigenvalues_only(alpha_matrix(g2, a))]))[::-1]
    assert np.allclose(eigenvalues_only(alpha_matrix(u, a)), merged, atol=1e-11)
