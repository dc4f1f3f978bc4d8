"""Exact spectra for structured families of the interpolation matrix M(alpha).

Each function returns the spectrum predicted by a closed formula (for
complete multipartite graphs, formula layers plus the eigenvalues of a small
quotient matrix, one row per distinct part size), so the numeric eigensolver
can be checked against it and vice versa.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .eigensolver import eigenvalues_only
from .errors import ParameterError, SolverError
from .matrices import check_alpha


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Eigenvalues with multiplicities, sorted descending, plus a source label."""

    values_with_multiplicity: tuple[tuple[float, int], ...]
    source: str

    def __post_init__(self):
        pairs = tuple((float(v), int(m)) for v, m in self.values_with_multiplicity)
        if any(m < 1 for _, m in pairs):
            raise ParameterError("multiplicities must be positive")
        if any(pairs[i][0] < pairs[i + 1][0] for i in range(len(pairs) - 1)):
            raise ParameterError("values must be sorted descending")
        object.__setattr__(self, "values_with_multiplicity", pairs)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.values_with_multiplicity)

    def expand(self) -> np.ndarray:
        """Flatten to a descending array with multiplicities repeated out."""
        out = []
        for v, m in self.values_with_multiplicity:
            out.extend([v] * m)
        return np.array(out)

    def trace(self) -> float:
        return float(sum(v * m for v, m in self.values_with_multiplicity))


def _sorted_pairs(pairs) -> tuple[tuple[float, int], ...]:
    """Pairs in descending order of value; the multiplicities of exactly equal
    values are summed into one pair."""
    merged: dict[float, int] = {}
    for v, m in pairs:
        if m > 0:
            merged[float(v)] = merged.get(float(v), 0) + int(m)
    return tuple(sorted(merged.items(), key=lambda p: -p[0]))


def spectrum_complete(n: int, alpha: float) -> ClosedFormSpectrum:
    """Spectrum of M(alpha) for the complete graph on n vertices."""
    a = check_alpha(alpha)
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    pairs = [(float(n - 1), 1)]
    if n > 1:
        pairs.append((a * n - 1.0, n - 1))
    return ClosedFormSpectrum(_sorted_pairs(pairs), "complete")


def _two_level_extremes(a_size: int, b_size: int, alpha: float) -> tuple[float, float]:
    """Largest and smallest eigenvalue of the complete bipartite quotient."""
    s = float(a_size + b_size)
    disc = alpha * alpha * s * s + 4.0 * a_size * b_size * (1.0 - 2.0 * alpha)
    root = math.sqrt(disc)
    return 0.5 * (alpha * s + root), 0.5 * (alpha * s - root)


def spectrum_complete_bipartite(a_size: int, b_size: int, alpha: float) -> ClosedFormSpectrum:
    """Spectrum of M(alpha) for the complete bipartite graph with given part sizes."""
    al = check_alpha(alpha)
    if a_size < 1 or b_size < 1:
        raise ParameterError("complete bipartite needs part sizes >= 1")
    big, small = max(a_size, b_size), min(a_size, b_size)
    hi, lo = _two_level_extremes(big, small, al)
    pairs = [(hi, 1), (lo, 1)]
    if small > 1:
        pairs.append((al * big, small - 1))
    if big > 1:
        pairs.append((al * small, big - 1))
    return ClosedFormSpectrum(_sorted_pairs(pairs), "complete_bipartite")


def spectrum_star(n: int, alpha: float) -> ClosedFormSpectrum:
    """Spectrum of M(alpha) for the star of order n (center plus n-1 leaves)."""
    if n < 2:
        raise ParameterError("star spectrum needs n >= 2")
    inner = spectrum_complete_bipartite(n - 1, 1, alpha)
    return ClosedFormSpectrum(inner.values_with_multiplicity, "star")


def regular_shift(a_spectrum, d: int, alpha: float) -> ClosedFormSpectrum:
    """Map an adjacency spectrum of a d-regular graph to the M(alpha) spectrum.

    Each adjacency eigenvalue mu becomes alpha*d + (1-alpha)*mu.
    """
    a = check_alpha(alpha)
    vals = [float(v) for v in a_spectrum]
    if not vals:
        raise ParameterError("spectrum must be nonempty")
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise ParameterError("adjacency spectrum must be sorted descending")
    if abs(vals[0] - d) > 1e-9:
        raise ParameterError(
            f"largest adjacency eigenvalue {vals[0]} does not match degree {d}")
    mapped = [(a * d + (1.0 - a) * v, 1) for v in vals]
    return ClosedFormSpectrum(_sorted_pairs(mapped), "regular_shift")


def join_regular_radius(r1: int, n1: int, r2: int, n2: int, alpha: float) -> float:
    """Largest eigenvalue of M(alpha) for the join of an r1-regular graph on n1
    vertices with an r2-regular graph on n2 vertices.

    Largest root of (x - r1 - alpha*n2)(x - r2 - alpha*n1) = (1-alpha)^2*n1*n2.
    """
    a = check_alpha(alpha)
    if n1 < 1 or n2 < 1:
        raise ParameterError("join needs part orders >= 1")
    if not (0 <= r1 <= n1 - 1) or not (0 <= r2 <= n2 - 1):
        raise ParameterError("regularity degrees must satisfy 0 <= r_i <= n_i - 1")
    u = r1 + a * n2
    v = r2 + a * n1
    disc = (u - v) * (u - v) + 4.0 * (1.0 - a) * (1.0 - a) * n1 * n2
    return 0.5 * (u + v + math.sqrt(disc))


def _part_groups(sizes: list[int]) -> list[tuple[int, int]]:
    """(size, count) for each distinct part size, sizes descending, so nothing
    downstream depends on the order of the parts."""
    if any(s < 1 for s in sizes):
        raise ParameterError("part sizes must be >= 1")
    return sorted(Counter(sizes).items(), reverse=True)


def _quotient_eigenvalues(groups, a: float, n: int) -> np.ndarray:
    """Eigenvalues, descending, of M(alpha) on the vectors constant on each
    group of equal-size parts: the symmetrized quotient of that equitable
    partition. A group of c parts of size s has diagonal entry
    alpha*(n - s) + (1-alpha)*(c - 1)*s; groups s and t are joined by
    (1-alpha)*sqrt(c_s*s * c_t*t)."""
    s, c = np.array(groups, dtype=np.float64).T
    q = (1.0 - a) * np.sqrt(np.outer(c * s, c * s))
    np.fill_diagonal(q, a * (n - s) + (1.0 - a) * (c - 1.0) * s)
    return eigenvalues_only(q)


def multipartite_radius(part_sizes, alpha: float) -> float:
    """Largest eigenvalue of M(alpha) for a complete multipartite graph.

    The top eigenvalue of the quotient over groups of equal-size parts, which
    is the largest root of sum_k n_k / (x - alpha*n + n_k) = 1/(1-alpha).
    Exactly at 1/(1-alpha) = r (the number of parts) the root is alpha*n
    itself, returned as such.
    """
    a = check_alpha(alpha)
    sizes = [int(s) for s in part_sizes]
    if len(sizes) < 2:
        raise ParameterError("complete multipartite radius needs at least 2 parts")
    groups = _part_groups(sizes)
    if a == 1.0:
        raise ParameterError("secular form is degenerate at alpha = 1")
    n = sum(sizes)
    if 1.0 / (1.0 - a) == float(len(sizes)):
        return a * n
    return float(_quotient_eigenvalues(groups, a, n)[0])


def spectrum_complete_multipartite(part_sizes, alpha: float) -> ClosedFormSpectrum:
    """Full spectrum of M(alpha) for a complete multipartite graph.

    Three layers: vectors inside one part summing to zero give alpha*(n - s)
    with multiplicity s - 1 per part of size s; balanced differences between
    equal-size parts give alpha*n - s, one fewer than the number of such
    parts; the vectors constant on each group of equal-size parts give the
    eigenvalues of the quotient matrix, one per distinct part size.
    """
    a = check_alpha(alpha)
    sizes = [int(s) for s in part_sizes]
    if not sizes:
        raise ParameterError("need at least one part")
    groups = _part_groups(sizes)
    n = sum(sizes)
    pairs = [(a * (n - s), c * (s - 1)) for s, c in groups]
    pairs += [(a * n - s, c - 1) for s, c in groups]
    pairs += [(v, 1) for v in _quotient_eigenvalues(groups, a, n)]
    out = ClosedFormSpectrum(_sorted_pairs(pairs), source="complete_multipartite")
    if out.n != n:
        raise SolverError("multipartite spectrum lost multiplicity",
                          expected=n, got=out.n)
    return out
