"""Dense symmetric eigensolver and spectrum utilities.

Every solve runs LAPACK through numpy.linalg: eigh for values with vectors,
eigvalsh for values only, stacked over a batch for many small matrices. The
guards around it are the package's own: inputs must be finite and exactly
symmetric, every solve, batched or not, is verified against the trace and
squared-trace identities, and eigenvector signs are normalized so results
are deterministic. A single matrix is checked with four scalar sums, a stack
with one reduction per sum over the whole batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
from .graphs import Graph, component_labels
from .matrices import alpha_matrix, check_alpha


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted descending plus the max per-pair residual of the solve."""

    values: np.ndarray
    residual_norm: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def spread(self) -> float:
        if self.n == 0:
            return 0.0
        return float(self.values[0] - self.values[-1])

    def tolist(self) -> list[float]:
        return [float(x) for x in self.values]


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    vector: np.ndarray


def _check_square_symmetric(mat, stack: bool = False) -> np.ndarray:
    """mat as float64, checked: one (n, n) matrix or, with stack, a (b, n, n) stack
    (one matrix passes as a stack of one), finite and exactly symmetric."""
    a = np.asarray(mat, dtype=np.float64)
    if stack and a.ndim == 2:
        a = a[np.newaxis]
    if a.ndim != 2 + stack or a.shape[-1] != a.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError("matrix has NaN or infinite entries")
    if not (a == a.mT).all():
        raise ParameterError("matrix is not exactly symmetric")
    return a


def _lapack(solver, mat: np.ndarray):
    """Call a numpy.linalg eigensolver, reporting LAPACK failure as SolverError."""
    try:
        return solver(mat)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"LAPACK eigensolver failed: {exc}",
                          shape=tuple(int(k) for k in mat.shape)) from exc


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    # one whole-array multiply: numpy 2.4's in-place ufuncs on strided column
    # views (np.negative(col, out=col)) can write wrong values
    if vectors.size == 0:
        return vectors
    rows = np.argmax(np.abs(vectors), axis=0)
    peak = vectors[rows, np.arange(vectors.shape[1])]
    return vectors * np.where(peak < 0.0, -1.0, 1.0)


def _identity_check(mat: np.ndarray, values: np.ndarray):
    """Raise SolverError unless the n eigenvalues of one (n, n) matrix meet its
    trace and then its squared-trace identity, each to a relative 1e-10."""
    tr, s1 = float(mat.trace()), float(values.sum())
    if abs(s1 - tr) > 1e-10 * max(1.0, float(np.abs(values).sum())):
        raise SolverError("trace identity violated", trace=tr, eigensum=s1)
    tr2, s2 = float(np.vdot(mat, mat)), float(values @ values)
    if abs(s2 - tr2) > 1e-10 * max(1.0, tr2):
        raise SolverError("squared trace identity violated", trace2=tr2, eigensum2=s2)


def _trace_identities(mats: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per matrix of a (b, n, n) stack with its (b, n) eigenvalues: whether
    either identity _identity_check tests fails, one reduction per sum."""
    tr = mats.diagonal(0, 1, 2).sum(axis=1)
    tr2 = np.einsum("bij,bij->b", mats, mats)
    bad1 = np.abs(values.sum(axis=1) - tr) > 1e-10 * np.maximum(1.0, np.abs(values).sum(axis=1))
    bad2 = np.abs((values * values).sum(axis=1) - tr2) > 1e-10 * np.maximum(1.0, tr2)
    return bad1 | bad2


def decompose(mat) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition: values descending, eigenvectors as columns.

    Vector signs are normalized so the entry of largest magnitude (lowest
    index on ties) is positive.
    """
    mat = _check_square_symmetric(mat)
    values, vectors = _lapack(np.linalg.eigh, mat)
    values = values[::-1].copy()
    vectors = _normalize_signs(vectors[:, ::-1])
    _identity_check(mat, values)
    return values, vectors


def eigenvalues_only(mat) -> np.ndarray:
    """Eigenvalues sorted descending, without eigenvectors. LAPACK's
    values-only path can return wrong values (seen for entries near 1e-160):
    values that fail the trace identities are solved again through eigh, and
    only a second failure raises."""
    mat = _check_square_symmetric(mat)
    values = _lapack(np.linalg.eigvalsh, mat)[::-1].copy()
    try:
        _identity_check(mat, values)
    except SolverError:
        values = _lapack(np.linalg.eigh, mat)[0][::-1].copy()
        _identity_check(mat, values)
    return values


def full_spectrum(mat, tol: float = 1e-12) -> Spectrum:
    """Solve, verify the backward error against tol, and package the values."""
    values, vectors = decompose(mat)
    n = values.size
    if n == 0:
        return Spectrum(values, 0.0)
    resid = np.asarray(mat) @ vectors - vectors * values[np.newaxis, :]
    # the largest column norm; sqrt is correctly rounded, so monotone
    residual = math.sqrt((resid * resid).sum(axis=0).max())
    scale = max(1.0, float(values[0] - values[-1]))
    if residual > tol * scale:
        raise SolverError("residual exceeds tolerance",
                          residual=residual, tol=tol, scale=scale)
    return Spectrum(values, residual)


def extreme_pair(mat, which: str = "largest") -> EigenPair:
    """The largest or smallest eigenvalue with its normalized eigenvector."""
    if which not in ("largest", "smallest"):
        raise ParameterError(f"which must be 'largest' or 'smallest', got {which!r}")
    values, vectors = decompose(mat)
    if values.size == 0:
        raise ParameterError("empty matrix has no eigenpairs")
    j = 0 if which == "largest" else values.size - 1
    vec = vectors[:, j].copy()
    vec.setflags(write=False)
    return EigenPair(float(values[j]), vec)


def distinct_count(s: Spectrum, cluster_tol: float = 1e-8) -> int:
    """Number of eigenvalue clusters under a spread-scaled gap threshold."""
    if s.n == 0:
        return 0
    gap = cluster_tol * max(1.0, s.spread())
    return 1 + int(np.count_nonzero(s.values[:-1] - s.values[1:] > gap))


def psd_threshold(g: Graph, tol: float = 1e-10) -> float:
    """Smallest alpha at which M(alpha) is positive semidefinite, in closed form.

    Write M(alpha) = A + alpha*L. Isolated vertices pin the smallest
    eigenvalue at 0 for every alpha, so they are dropped (0.0 when no edge is
    left). On a component with an edge, L has kernel span(1) and 1'A1 = 2m > 0,
    so M(alpha) is positive semidefinite exactly when S + alpha*L is on the
    complement of 1, where S = A - d d'/2m is the Schur complement of A on the
    constant direction (d = A1, the degrees). With L = U diag(lam) U' there,
    the component's threshold is -lambda_min(W U' S U W), W = diag(lam)^(-1/2):
    one eigendecomposition and one values-only solve. The graph's threshold is
    the largest over its components. One more solve of M at the result checks
    that its smallest eigenvalue, on the non-isolated vertices, is within tol
    of zero; SolverError (diagnostics threshold, lam_min, tol) if it is not.
    """
    if g.n == 0:
        raise ParameterError("positive semidefinite threshold needs a nonempty graph")
    if g.m == 0:
        return 0.0
    verts = {}
    for v, c in enumerate(component_labels(g)):
        verts.setdefault(c, []).append(v)
    t = 0.0
    for vs in verts.values():
        if len(vs) == 1:
            continue
        adj = g.adjacency[np.ix_(vs, vs)]
        deg = adj.sum(axis=1)
        lam, vecs = decompose(np.diag(deg) - adj)
        # the last pair is the kernel span(1) of a connected Laplacian
        whiten = vecs[:, :-1] / np.sqrt(lam[:-1])
        schur = adj - np.outer(deg, deg) / deg.sum()
        w = whiten.T @ schur @ whiten
        t = max(t, -float(eigenvalues_only(0.5 * (w + w.T))[-1]))
    keep = np.flatnonzero(g.adjacency.any(axis=1))
    lam_min = float(eigenvalues_only(alpha_matrix(g, t)[np.ix_(keep, keep)])[-1])
    if abs(lam_min) > tol:
        raise SolverError("smallest eigenvalue at the threshold is not within tol of zero",
                          threshold=t, lam_min=lam_min, tol=tol)
    return t


@dataclass(frozen=True)
class AlphaSweep:
    """Spectra of M(alpha) over a grid of alpha values."""

    alphas: tuple[float, ...]
    spectra: tuple[Spectrum, ...] = field(repr=False)

    @property
    def n(self) -> int:
        return self.spectra[0].n if self.spectra else 0

    def table(self) -> np.ndarray:
        """Eigenvalues as a (len(grid), n) array, row i for alpha_i, columns descending."""
        return np.array([s.values for s in self.spectra])

    def difference_quotients(self) -> np.ndarray:
        """Per-eigenvalue quotients (lambda_k(a_{i+1}) - lambda_k(a_i)) / (a_{i+1} - a_i)."""
        tab = self.table()
        alphas = np.array(self.alphas)
        steps = np.diff(alphas)
        return np.diff(tab, axis=0) / steps[:, np.newaxis]

    def to_csv(self) -> str:
        header = ",".join(["alpha"] + [f"lambda_{k}" for k in range(1, self.n + 1)])
        lines = [header]
        for a, s in zip(self.alphas, self.spectra):
            lines.append(",".join([repr(float(a))] + [repr(float(v)) for v in s.values]))
        return "\n".join(lines) + "\n"


def alpha_sweep(g: Graph, grid) -> AlphaSweep:
    alphas = tuple(check_alpha(a) for a in grid)
    if len(alphas) == 0:
        raise ParameterError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("sweep grid must be strictly increasing")
    spectra = tuple(full_spectrum(alpha_matrix(g, a)) for a in alphas)
    return AlphaSweep(alphas, spectra)


def eigvalsh_batch(mats) -> np.ndarray:
    """Eigenvalues (descending) for a stack of symmetric matrices, one LAPACK call.

    mats: array of shape (b, n, n), or one (n, n) matrix as a batch of one.
    Every matrix must be finite and exactly symmetric, as in the single-matrix
    solvers, and every matrix's values are checked as eigenvalues_only checks
    them, the matrices that fail solved again through eigh. Used by the
    enumeration scans.
    """
    mats = _check_square_symmetric(mats, stack=True)
    values = _lapack(np.linalg.eigvalsh, mats)[:, ::-1].copy()
    redo = np.flatnonzero(_trace_identities(mats, values))
    if redo.size:
        values[redo] = _lapack(np.linalg.eigh, mats[redo])[0][:, ::-1]
        for i in redo:
            _identity_check(mats[i], values[i])
    return values
