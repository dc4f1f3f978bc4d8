"""Dense symmetric eigensolver and spectrum utilities.

Every solve runs LAPACK through numpy.linalg: eigh for values with vectors,
eigvalsh for values only, stacked over a batch for many small matrices. The
guards around it are the package's own: inputs must be finite and exactly
symmetric, every single-matrix solve is verified against trace identities,
and eigenvector signs are normalized so results are deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
from .graphs import Graph, components, disjoint_union
from .matrices import alpha_matrix, check_alpha

PSD_BISECTION_MAX_ITER = 200


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


def _check_square_symmetric(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ParameterError("matrix has NaN or infinite entries")
    if mat.size and not np.array_equal(mat, mat.T):
        raise ParameterError("matrix is not exactly symmetric")
    return mat


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


def _trace_check(mat: np.ndarray, values: np.ndarray):
    tr = float(np.trace(mat))
    tr2 = float((mat * mat).sum())
    s1 = float(values.sum())
    s2 = float((values * values).sum())
    if abs(s1 - tr) > 1e-10 * max(1.0, float(np.abs(values).sum())):
        raise SolverError("trace identity violated", trace=tr, eigensum=s1)
    if abs(s2 - tr2) > 1e-10 * max(1.0, tr2):
        raise SolverError("squared trace identity violated", trace2=tr2, eigensum2=s2)


def decompose(mat) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition: values descending, eigenvectors as columns.

    Vector signs are normalized so the entry of largest magnitude (lowest
    index on ties) is positive.
    """
    mat = _check_square_symmetric(mat)
    values, vectors = _lapack(np.linalg.eigh, mat)
    values = values[::-1].copy()
    vectors = _normalize_signs(vectors[:, ::-1])
    _trace_check(mat, values)
    return values, vectors


def eigenvalues_only(mat) -> np.ndarray:
    """Eigenvalues sorted descending, without eigenvectors."""
    mat = _check_square_symmetric(mat)
    values = _lapack(np.linalg.eigvalsh, mat)[::-1].copy()
    _trace_check(mat, values)
    return values


def full_spectrum(mat, tol: float = 1e-12) -> Spectrum:
    """Solve, verify the backward error against tol, and package the values."""
    values, vectors = decompose(mat)
    n = values.size
    if n == 0:
        return Spectrum(values, 0.0)
    resid = np.asarray(mat) @ vectors - vectors * values[np.newaxis, :]
    residual = float(np.sqrt((resid * resid).sum(axis=0)).max())
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
    """Smallest alpha at which M(alpha) is positive semidefinite, by bisection.

    The minimum eigenvalue is nondecreasing in alpha; returns an alpha whose
    minimum eigenvalue is within tol of zero (or 0.0 when already PSD there).
    Isolated vertices pin it at 0, so they are dropped: on each component with
    an edge it is concave and reaches the minimum degree at alpha = 1.
    """
    if g.n == 0:
        raise ParameterError("positive semidefinite threshold needs a nonempty graph")
    if g.m == 0:
        return 0.0
    if g.min_degree() == 0:
        g = disjoint_union(c for c, _ in components(g) if c.m)

    def lam_min(a: float) -> float:
        return float(eigenvalues_only(alpha_matrix(g, a))[-1])

    if lam_min(0.0) >= -tol:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(PSD_BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f = lam_min(mid)
        if abs(f) <= tol:
            return mid
        if f < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    solvers. Used by the enumeration scans.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim == 2:
        a = a[np.newaxis]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ParameterError(f"expected shape (b, n, n), got {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError("batch has NaN or infinite entries")
    if not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ParameterError("batch holds a matrix that is not exactly symmetric")
    return _lapack(np.linalg.eigvalsh, a)[:, ::-1].copy()
