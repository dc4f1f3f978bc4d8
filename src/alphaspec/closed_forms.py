"""Exact spectra for structured families of the interpolation matrix M(alpha).

Each function returns the spectrum predicted by a closed formula (or, for
complete multipartite graphs, by bisection on the secular equation), so the
numeric eigensolver can be checked against it and vice versa.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError
from .matrices import check_alpha

SECULAR_BISECTION_TOL = 1e-12
SECULAR_MAX_ITER = 200


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


def _secular_sum(lam: float, alpha: float, sizes, n: int) -> float:
    return sum(nk / (lam - alpha * n + nk) for nk in sizes)


def multipartite_radius(part_sizes, alpha: float) -> float:
    """Largest eigenvalue of M(alpha) for a complete multipartite graph.

    Root of sum_k n_k / (x - alpha*n + n_k) = 1/(1-alpha), bracketed on the
    side of alpha*n determined by the sign of r - 1/(1-alpha) and located by
    bisection. Exactly at 1/(1-alpha) = r the root is alpha*n itself.
    """
    a = check_alpha(alpha)
    sizes = [int(s) for s in part_sizes]
    if len(sizes) < 2:
        raise ParameterError("complete multipartite radius needs at least 2 parts")
    if any(s < 1 for s in sizes):
        raise ParameterError("part sizes must be >= 1")
    if a == 1.0:
        raise ParameterError("secular form is degenerate at alpha = 1")
    r = len(sizes)
    n = sum(sizes)
    target = 1.0 / (1.0 - a)
    if target == float(r):
        return a * n
    if target < r:
        # root lies right of alpha*n; the sum is r at alpha*n and below target at n
        lo, hi = a * n, float(n)
    else:
        # root lies between the largest pole and alpha*n
        n_min = min(sizes)
        lo = _off_pole(n_min, n_min * 1e-6, a, sizes, n, target)
        if _secular_sum(lo, a, sizes, n) <= target:
            return lo  # no usable float between the pole and the root
        hi = a * n
    return _secular_root_between(lo, hi, a, sizes, n, target)


def _off_pole(s: int, off: float, a: float, sizes, n: int, target: float) -> float:
    """Bracket end beside the pole alpha*n - s, on the side of off's sign:
    pole + off, with off divided by 1024 while the root lies between that
    point and the pole. Where that step would not move, or would reach the
    pole as the sum computes it (a zero or sign-flipped denominator), off is
    halved instead; where halving cannot move either, the point is returned
    with the root still nearer the pole, within a few ulps of alpha*n."""
    pole = a * n - s
    x = pole + off
    while (_secular_sum(x, a, sizes, n) <= target) == (off > 0):
        for shrink in (1024.0, 2.0):
            nxt = pole + off / shrink
            if nxt != x and (nxt - a * n + s) * off > 0.0:
                break
        else:
            return x
        off /= shrink
        x = nxt
    return x


def _secular_root_between(lo: float, hi: float, a: float, sizes, n: int,
                          target: float) -> float:
    """Bisect the strictly decreasing secular sum down to target inside (lo, hi)."""
    flo = _secular_sum(lo, a, sizes, n)
    fhi = _secular_sum(hi, a, sizes, n)
    if not (flo > target >= fhi or flo >= target > fhi):
        raise SolverError("secular bracket failed", lo=lo, hi=hi, flo=flo, fhi=fhi)
    for _ in range(SECULAR_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= SECULAR_BISECTION_TOL:
            break
        if _secular_sum(mid, a, sizes, n) > target:
            lo = mid
        else:
            hi = mid
    else:
        raise SolverError("secular bisection failed to converge", lo=lo, hi=hi)
    return 0.5 * (lo + hi)


def spectrum_complete_multipartite(part_sizes, alpha: float) -> ClosedFormSpectrum:
    """Full spectrum of M(alpha) for a complete multipartite graph.

    Three layers: vectors inside one part summing to zero give alpha*(n - s)
    with multiplicity s - 1 per part of size s; balanced differences between
    equal-size parts sit exactly at the pole alpha*n - s, one fewer than the
    number of such parts; the remaining eigenvalues are secular roots, one in
    each gap between consecutive distinct poles and one above the largest.
    """
    a = check_alpha(alpha)
    sizes = sorted((int(s) for s in part_sizes), reverse=True)
    if not sizes:
        raise ParameterError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ParameterError("part sizes must be >= 1")
    n = sum(sizes)
    if len(sizes) == 1:
        return ClosedFormSpectrum(((0.0, n),), source="complete_multipartite")
    if a == 1.0:
        # the degree matrix alone: every vertex in a part of size s has degree n - s
        return ClosedFormSpectrum(_sorted_pairs((n - s, s) for s in sizes),
                                  source="complete_multipartite")
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    pairs = []
    for s, c in counts.items():
        if s >= 2:
            pairs.append((a * (n - s), c * (s - 1)))
        if c >= 2:
            pairs.append((a * n - s, c - 1))
    desc = sorted(counts, reverse=True)  # poles alpha*n - s ascending
    target = 1.0 / (1.0 - a)
    pairs.append((multipartite_radius(sizes, a), 1))
    for s_lo, s_hi in zip(desc, desc[1:]):
        off = ((a * n - s_hi) - (a * n - s_lo)) * 1e-6
        lo = _off_pole(s_lo, off, a, sizes, n, target)
        hi = _off_pole(s_hi, -off, a, sizes, n, target)
        if _secular_sum(lo, a, sizes, n) <= target:
            pairs.append((lo, 1))  # no usable float between the pole and the root
        else:
            pairs.append((_secular_root_between(lo, hi, a, sizes, n, target), 1))
    out = ClosedFormSpectrum(_sorted_pairs(pairs), source="complete_multipartite")
    if out.n != n:
        raise SolverError("multipartite spectrum lost multiplicity",
                          expected=n, got=out.n)
    return out
