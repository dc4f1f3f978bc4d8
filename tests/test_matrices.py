import json
import math

import numpy as np
import pytest

from alphaspec import (DimensionError, Graph, ParameterError, alpha_matrix,
                       assemble, complete, cycle, identity_residual,
                       matrix_from_json, matrix_to_json, path, quadratic_form,
                       star, vertex_score)
from alphaspec.matrices import MATRIX_KINDS
from conftest import rand_graph


def test_assemble_kinds():
    g = path(3)
    A = assemble(g, "adjacency")
    D = assemble(g, "degree")
    L = assemble(g, "laplacian")
    Q = assemble(g, "signless")
    assert np.array_equal(L, D - A)
    assert np.array_equal(Q, D + A)
    assert np.array_equal(assemble(g, "alpha", 0.5), 0.5 * Q)
    assert np.array_equal(assemble(g, "alpha", 0.0), A)
    assert np.array_equal(assemble(g, "alpha", 1.0), D)


def test_assemble_validation():
    with pytest.raises(ParameterError):
        assemble(path(3), "mystery")
    with pytest.raises(ParameterError):
        assemble(path(3), "alpha")
    with pytest.raises(ParameterError):
        alpha_matrix(path(3), 1.5)
    with pytest.raises(ParameterError):
        alpha_matrix(path(3), -0.1)


def test_matrices_exactly_symmetric(rng):
    for _ in range(30):
        g = rand_graph(rng, int(rng.integers(1, 12)), 0.4)
        m = alpha_matrix(g, float(rng.random()))
        assert np.array_equal(m, m.T)


def test_linear_identity_residual(rng):
    # M(a) - M(b) = (a-b) L, exactly up to float rounding
    for _ in range(50):
        g = rand_graph(rng, int(rng.integers(1, 14)), 0.3)
        a, b = sorted(rng.random(2))
        assert identity_residual(g, float(a), float(b)) <= 1e-15 * max(1, g.n)


def test_quadratic_form_routes_agree(rng):
    # the evaluator cross-checks three expansions internally and raises on drift
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        g = rand_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        x = rng.standard_normal(n) * float(10.0 ** rng.integers(-3, 4))
        a = float(rng.random())
        q = quadratic_form(g, a, x)
        assert abs(q - x @ alpha_matrix(g, a) @ x) <= 1e-9 * max(1.0, abs(q))


def test_quadratic_form_known_value():
    # K_2 with x = (1, 1): a*2 + 2(1-a) = 2 for every a
    for a in (0.0, 0.3, 1.0):
        assert quadratic_form(complete(2), a, [1.0, 1.0]) == pytest.approx(2.0)


def test_vertex_score_matches_matrix_row(rng):
    g = cycle(7)
    x = rng.standard_normal(7)
    m = alpha_matrix(g, 0.35)
    for v in range(7):
        assert vertex_score(g, 0.35, x, v) == pytest.approx(float(m[v] @ x))
    with pytest.raises(IndexError):
        vertex_score(g, 0.35, x, 7)


def test_vector_shape_checked():
    with pytest.raises(DimensionError):
        quadratic_form(star(4), 0.5, [1.0, 2.0])


def test_matrix_json_roundtrip():
    m = alpha_matrix(path(4), 1 / 3)
    back = matrix_from_json(matrix_to_json(m))
    assert back.tobytes() == m.tobytes()
    edge = np.array([[5e-324, -1.7976931348623157e308], [0.1, -2 / 3]])
    assert matrix_from_json(matrix_to_json(edge)).tobytes() == edge.tobytes()
    doc = json.loads(matrix_to_json(m))
    assert doc["n"] == 4 and len(doc["rows"]) == 4
    empty = matrix_from_json(matrix_to_json(np.zeros((0, 0))))
    assert empty.shape == (0, 0) and empty.dtype == np.float64


def test_matrix_json_keeps_negative_zero():
    m = np.array([[-0.0, 0.0], [1.0, -2.5]])
    text = matrix_to_json(m)
    assert text == '{"n": 2, "rows": [\n    [-0.0, 0],\n    [1, -2.5]\n]}'
    back = matrix_from_json(text)
    assert np.signbit(back).tolist() == [[True, False], [False, True]]
    assert back.tobytes() == m.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_to_json_rejects_non_finite(bad):
    m = alpha_matrix(path(3), 0.5)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ParameterError):
        matrix_to_json(m)


@pytest.mark.parametrize("text,error", [
    ("{}", ParameterError),
    ('{"n": 2}', ParameterError),
    ("[1, 2]", ParameterError),
    ("not json", ParameterError),
    ('{"n": "two", "rows": []}', ParameterError),
    ('{"n": 2, "rows": [[1, "a"], [2, 3]]}', ParameterError),
    ('{"n": 2, "rows": [[1, 2], [3]]}', ParameterError),
    ('{"n": 2, "rows": [[1, 2], [3, 4], [5, 6]]}', DimensionError),
    ('{"n": 2, "rows": [1, 2]}', DimensionError),
    ('{"n": -1, "rows": [1]}', DimensionError),
    ('{"n": 2.5, "rows": [[1, 2], [3, 4]]}', ParameterError),
    ('{"n": 2.0, "rows": [[1, 2], [3, 4]]}', ParameterError),
    ('{"n": true, "rows": [[1]]}', ParameterError),
    ('{"n": "2", "rows": [[1, 2], [3, 4]]}', ParameterError),
    ('{"n": 2, "rows": [1, 2, 3, 4]}', DimensionError),
    ('{"n": 2, "rows": [[1, 2, 3, 4]]}', DimensionError),
    ('{"n": 0, "rows": [[]]}', DimensionError),
])
def test_matrix_from_json_rejects_bad_documents(text, error):
    with pytest.raises(error):
        matrix_from_json(text)


def test_alpha_half_is_half_signless():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))
    assert np.array_equal(alpha_matrix(g, 0.5) * 2.0, assemble(g, "signless"))


# ---------------------------------------------------------------- oracle
# Reference: one loop per kind writing each entry. assemble must match it byte
# for byte, so a -0.0 is caught where == is blind.

def _loop_assemble(g, kind, alpha=None):
    n = g.n
    mat = np.zeros((n, n))
    deg = g.degrees
    if kind == "adjacency":
        for u, v in g.edges:
            mat[u, v] = mat[v, u] = 1.0
    elif kind == "degree":
        for v in range(n):
            mat[v, v] = float(deg[v])
    elif kind == "laplacian":
        for v in range(n):
            mat[v, v] = float(deg[v])
        for u, v in g.edges:
            mat[u, v] = mat[v, u] = -1.0
    elif kind == "signless":
        for v in range(n):
            mat[v, v] = float(deg[v])
        for u, v in g.edges:
            mat[u, v] = mat[v, u] = 1.0
    else:
        off = 1.0 - alpha
        for v in range(n):
            mat[v, v] = alpha * deg[v]
        for u, v in g.edges:
            mat[u, v] = mat[v, u] = off
    return mat


ORACLE_ALPHAS = (0.0, 1.0 / 3.0, 0.5, 1.0 - 2.0 ** -53, 1.0)


def _assert_assemble_bytes(g):
    for kind in MATRIX_KINDS:
        for a in ORACLE_ALPHAS if kind == "alpha" else (None,):
            got = assemble(g, kind, a)
            want = _loop_assemble(g, kind, a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (g, kind, a)


def test_assemble_bytes_match_loops(rng):
    for n in range(15):
        for p in (0.0, 0.3, 0.7, 1.0):
            _assert_assemble_bytes(rand_graph(rng, n, p))
    for n in (40, 120):
        _assert_assemble_bytes(rand_graph(rng, n, 0.2))


def test_adjacency_is_read_only_and_results_are_fresh():
    g = cycle(5)
    assert not g.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 2] = 1.0
    for kind in MATRIX_KINDS:
        first = assemble(g, kind, 0.4)
        want = first.copy()
        first[:] = 7.0
        assert assemble(g, kind, 0.4).tobytes() == want.tobytes()
    assert g.adjacency.tobytes() == _loop_assemble(g, "adjacency").tobytes()
