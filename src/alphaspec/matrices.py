"""Dense symmetric matrix assembly for a graph: adjacency, degree, Laplacians,
and the convex interpolation family M(alpha) = alpha*D + (1-alpha)*A.

Every kind is one blend d_coef*D + a_coef*A of the graph's cached adjacency
array (Graph.adjacency), so entries (i, j) and (j, i) are always
bit-identical, and every result is a fresh float64 array.
"""

import json

import numpy as np

from .errors import DimensionError, ParameterError
from .graphs import Graph

# kind -> (d_coef, a_coef); "alpha" takes (alpha, 1 - alpha)
_KIND_COEFS = {"adjacency": (0.0, 1.0), "degree": (1.0, 0.0),
               "laplacian": (1.0, -1.0), "signless": (1.0, 1.0)}
MATRIX_KINDS = (*_KIND_COEFS, "alpha")


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _blend(adj: np.ndarray, d_coef: float, a_coef: float) -> np.ndarray:
    """d_coef*D + a_coef*A for one 0/1 adjacency matrix or a (b, n, n) stack."""
    out = a_coef * adj
    out += 0.0  # a negative a_coef leaves -0.0 on non-edges; this makes it +0.0
    idx = np.arange(adj.shape[-1])
    out[..., idx, idx] = d_coef * adj.sum(axis=-1)
    return out


def assemble(g: Graph, kind: str, alpha: float | None = None) -> np.ndarray:
    """Assemble the requested matrix of g as an exactly symmetric float64 array."""
    if kind not in MATRIX_KINDS:
        raise ParameterError(f"unknown matrix kind {kind!r}")
    if kind != "alpha":
        return _blend(g.adjacency, *_KIND_COEFS[kind])
    if alpha is None:
        raise ParameterError("kind 'alpha' requires the alpha parameter")
    a = check_alpha(alpha)
    return _blend(g.adjacency, a, 1.0 - a)


def alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    return assemble(g, "alpha", alpha)


def identity_residual(g: Graph, alpha: float, beta: float) -> float:
    """Max absolute entry of M(alpha) - M(beta) - (alpha-beta)*L; 0 in exact arithmetic."""
    a = check_alpha(alpha)
    b = check_alpha(beta)
    diff = alpha_matrix(g, a) - alpha_matrix(g, b) - (a - b) * assemble(g, "laplacian")
    return float(np.abs(diff).max()) if g.n else 0.0


def _check_vector(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise DimensionError(f"vector has shape {x.shape}, expected ({g.n},)")
    return x


def quadratic_form(g: Graph, alpha: float, x) -> float:
    """Evaluate x^T M(alpha) x three algebraically equal ways and return the edge form.

    The three routes (per-edge expansion, cut-style regrouping, degree plus
    product split) must agree to roundoff; disagreement means corrupted
    assembly and raises.
    """
    a = check_alpha(alpha)
    x = _check_vector(g, x)
    deg = g.degrees
    q_edge = 0.0
    prodved = 0.0
    square = 0.0
    for u, v in g.edges:
        xu, xv = x[u], x[v]
        q_edge += a * (xu * xu + xv * xv) + 2.0 * (1.0 - a) * xu * xv
        prod = xu * xv
        prodved += prod
        s = xu + xv
        square += s * s
    wdeg = sum(x[v] * x[v] * deg[v] for v in range(g.n))
    q_cut = (2.0 * a - 1.0) * wdeg + (1.0 - a) * square
    q_split = a * wdeg + 2.0 * (1.0 - a) * prodved
    scale = 1e-12 * max(1.0, float(x @ x)) * max(1, g.max_degree())
    if abs(q_edge - q_cut) > scale or abs(q_edge - q_split) > scale:
        raise ArithmeticError(
            f"quadratic form routes disagree: {q_edge}, {q_cut}, {q_split}")
    return q_edge


def vertex_score(g: Graph, alpha: float, x, v: int) -> float:
    """Row v of M(alpha) applied to x: alpha*deg(v)*x_v + (1-alpha)*sum over neighbors."""
    a = check_alpha(alpha)
    x = _check_vector(g, x)
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    return float(a * g.degrees[v] * x[v] + (1.0 - a) * sum(x[w] for w in g.neighbors[v]))


def _json_number(x: float) -> str:
    # "-0" would load back as the integer 0, so negative zero keeps its point
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def matrix_to_json(mat: np.ndarray) -> str:
    """Serialize a square matrix as JSON {"n": ..., "rows": [...]}, 17 significant
    digits, so every finite entry loads back bit for bit. JSON has no NaN or
    infinity, so a non-finite entry raises."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ParameterError("matrix has NaN or infinite entries, which JSON cannot hold")
    n = mat.shape[0]
    rows = ",\n    ".join(
        "[" + ", ".join(map(_json_number, row)) + "]" for row in mat)
    if n == 0:
        return '{"n": 0, "rows": []}'
    return '{"n": %d, "rows": [\n    %s\n]}' % (n, rows)


def matrix_from_json(text: str) -> np.ndarray:
    """Read matrix_to_json's format back as a float64 (n, n) array."""
    try:
        doc = json.loads(text)
        n, rows = doc["n"], np.array(doc["rows"], dtype=np.float64)
        if type(n) is not int:  # a JSON integer, not a bool, a float or a string
            raise TypeError(f"n is {n!r}")
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ParameterError(f'matrix JSON needs integer "n" and numeric "rows": {exc!r}') from exc
    if n < 0 or rows.shape != ((n, n) if n else (0,)):  # n = 0 is written as []
        raise DimensionError(f"rows have shape {rows.shape}, not an n x n matrix for n={n}")
    return rows.reshape(n, n)
