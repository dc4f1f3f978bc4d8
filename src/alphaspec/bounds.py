"""Checked inequalities and identities for the spectrum of M(alpha).

Every proposition becomes a BoundRecord with a uniform slack/holds convention:
slack >= 0 means the inequality is satisfied with margin, and holds applies a
1e-9 relative tolerance. Records whose preconditions fail are emitted as
skipped markers rather than dropped silently; informational records are
reported but never counted as violations.

What the records use of a graph but not of alpha (degrees, 2-walks, per-edge
degrees, diameter, and the adjacency spectrum, maxcut and chromatic number
when they are not passed in) is computed once per Graph instance and kept on
it, so a sweep over alpha pays for it once. The per-k families
(degree_majorization_k*, weyl_mix_*_k*) are evaluated as float64 arrays with
the same elementwise arithmetic as the scalar records, so every value is the
one a record-by-record evaluation gives.
"""

import functools
import math
from dataclasses import dataclass, field, fields
from itertools import chain, repeat

import numpy as np

from .combinatorics import (CHROMATIC_DEFAULT_LIMIT, MAXCUT_MAX_VERTICES,
                            chromatic_number, diameter, maxcut)
from .errors import ParameterError, SolverError
from .eigensolver import (Spectrum, distinct_count, eigenvalues_only,
                          extreme_pair, full_spectrum)
from .graphs import Graph, is_connected, walk2_counts
from .matrices import alpha_matrix, assemble, check_alpha, quadratic_form

HOLDS_REL_TOL = 1e-9


@dataclass(frozen=True, init=False)
class BoundRecord:
    """One evaluated inequality or identity against the computed spectrum."""

    name: str
    side: str  # "upper_on" | "lower_on" | "identity"
    target: str
    bound_value: float | None
    spectral_value: float | None
    slack: float | None
    holds: bool
    strict: bool = False
    informational: bool = False
    skipped: bool = False
    note: str = ""

    def __init__(self, name, side, target, bound_value, spectral_value, slack, holds,
                 strict=False, informational=False, skipped=False, note=""):
        # one dict update in place of the generated frozen __init__'s
        # object.__setattr__ per field: a report builds dozens of records
        self.__dict__.update(
            name=name, side=side, target=target, bound_value=bound_value,
            spectral_value=spectral_value, slack=slack, holds=holds, strict=strict,
            informational=informational, skipped=skipped, note=note)

    def to_json_obj(self) -> dict:
        # asdict's result, without its per-field deepcopy: every field is a
        # str, float, bool or None
        return {name: getattr(self, name) for name in _RECORD_FIELDS}


_RECORD_FIELDS = tuple(f.name for f in fields(BoundRecord))


def _record(name: str, side: str, target: str, bound: float, spectral: float,
            strict: bool = False, informational: bool = False, note: str = "") -> BoundRecord:
    bound = float(bound)
    spectral = float(spectral)
    tol = HOLDS_REL_TOL * max(1.0, abs(bound))
    if side == "upper_on":
        slack = bound - spectral
        holds = slack >= -tol
    elif side == "lower_on":
        slack = spectral - bound
        holds = slack >= -tol
    elif side == "identity":
        slack = bound - spectral
        holds = abs(slack) <= tol
    else:
        raise ParameterError(f"unknown side {side!r}")
    return BoundRecord(name, side, target, bound, spectral, slack, holds,
                       strict, informational, False, note)


def _family(names: tuple, side: str, targets: tuple, bound: np.ndarray,
            spectral: np.ndarray) -> list[BoundRecord]:
    """_record over arrays of bounds and spectral values ("upper_on" or
    "lower_on"): the same float64 operations, elementwise."""
    slack = bound - spectral if side == "upper_on" else spectral - bound
    holds = slack >= -(HOLDS_REL_TOL * np.maximum(1.0, np.abs(bound)))
    return list(map(BoundRecord, names, repeat(side), targets, bound.tolist(),
                    spectral.tolist(), slack.tolist(), holds.tolist()))


def _skipped(name: str, side: str, target: str, note: str) -> BoundRecord:
    return BoundRecord(name, side, target, None, None, None, True,
                       skipped=True, note=note)


def _cached(g: Graph, key: str, compute):
    """compute(g), evaluated once per Graph instance and kept on it: an equal
    graph built separately computes its own."""
    memo = g._memo
    if key not in memo:
        memo[key] = compute(g)
    return memo[key]


class _GraphFacts:
    """The numbers the records use of a graph with n >= 1 that do not depend
    on alpha. Integer sums stay Python ints, so every bound is computed from
    the same values, in the same order, as from g.degrees directly."""

    def __init__(self, g: Graph):
        deg = g.degrees
        self.small, self.big = g.min_degree(), g.max_degree()
        self.regular = g.is_regular()
        self.deg2 = sum(d * d for d in deg)
        self.rms_degree = math.sqrt(self.deg2 / g.n)
        self.deg = np.array(deg, dtype=np.float64)
        self.deg_sorted = np.sort(self.deg)[::-1]
        self.walks = np.array(walk2_counts(g), dtype=np.float64)
        ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        self.edge_deg_u, self.edge_deg_v = self.deg[ends[:, 0]], self.deg[ends[:, 1]]


def _facts(g: Graph) -> _GraphFacts:
    return _cached(g, "bounds", _GraphFacts)


@functools.lru_cache(maxsize=64)
def _k_labels(n: int) -> tuple[tuple[str, ...], ...]:
    """Targets and names of the per-k families for order n. They depend on n
    alone, so graphs of one order share them instead of holding n strings each."""
    ks = range(1, n + 1)
    return (tuple(f"lambda_{k}" for k in ks),
            tuple(f"degree_majorization_k{k}" for k in ks),
            tuple(f"weyl_mix_lower_k{k}" for k in ks),
            tuple(f"weyl_mix_upper_k{k}" for k in ks))


def _adjacency_values(g: Graph) -> np.ndarray:
    mu = eigenvalues_only(assemble(g, "adjacency"))
    mu.setflags(write=False)
    return mu


def _check_adjacency_spectrum(g: Graph, adjacency_spectrum) -> np.ndarray:
    try:
        mu = np.asarray(adjacency_spectrum, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"adjacency spectrum is not numeric: {exc}") from exc
    if mu.shape != (g.n,):
        raise ParameterError(f"adjacency spectrum must hold {g.n} values, "
                             f"got an array of shape {mu.shape}")
    if not np.isfinite(mu).all():
        raise ParameterError("adjacency spectrum has a non-finite value")
    return mu


def radius_bounds(g: Graph, alpha: float, s: Spectrum,
                  adjacency_spectrum=None) -> list[BoundRecord]:
    """Bounds on the ordered eigenvalues, chiefly the spectral radius."""
    a = check_alpha(alpha)
    if adjacency_spectrum is not None:
        mu = _check_adjacency_spectrum(g, adjacency_spectrum)
    if g.n == 0:
        return []
    if s.n != g.n:
        raise ParameterError("spectrum size does not match graph order")
    if adjacency_spectrum is None:
        mu = _cached(g, "adjacency_spectrum", _adjacency_values)
    f = _facts(g)
    targets, majorization, lower_names, upper_names = _k_labels(g.n)
    lam = s.values
    lam1 = float(lam[0])
    big, small = f.big, f.small
    out = _family(majorization, "upper_on", targets, f.deg_sorted, lam)
    mixed_mu = (1.0 - a) * mu
    weyl_upper = a * big + mixed_mu
    # interleaved: weyl_mix_lower_k1, weyl_mix_upper_k1, weyl_mix_lower_k2, ...
    out.extend(chain.from_iterable(zip(
        _family(lower_names, "lower_on", targets, a * small + mixed_mu, lam),
        _family(upper_names, "upper_on", targets, weyl_upper, lam))))
    if g.m >= 1:
        disc = a * a * (big + 1.0) ** 2 + 4.0 * big * (1.0 - 2.0 * a)
        star_bound = 0.5 * (a * (big + 1.0) + math.sqrt(disc))
        out.append(_record("lovasz_star_lower", "lower_on", "lambda_1",
                           star_bound, lam1,
                           note="equality iff connected and the star on max_degree+1 vertices"))
        if a <= 0.5:
            out.append(_record("affine_degree_lower", "lower_on", "lambda_1",
                               a * (big + 1.0), lam1))
        else:
            # the printed two-branch simplification claims alpha*max_degree
            # + 1 - alpha on this range, but that line sits above the tight
            # star bound strictly inside (1/2, 1); the defensible affine
            # floor here is alpha*max_degree
            out.append(_record("affine_degree_lower", "lower_on", "lambda_1",
                               a * big, lam1))
            if a < 1.0:
                out.append(_record(
                    "affine_degree_lower_literal", "lower_on", "lambda_1",
                    a * big + 1.0 - a, lam1, informational=True,
                    note="fails on stars for alpha above one half; "
                         "kept for reference only"))
    else:
        out.append(_skipped("lovasz_star_lower", "lower_on", "lambda_1", "no edges"))
    out.append(_record("adjacency_lower", "lower_on", "lambda_1", mu[0], lam1))
    out.append(_record("adjacency_mix_upper", "upper_on", "lambda_1",
                       weyl_upper[0], lam1,
                       note="equality iff some component is max_degree-regular"))
    out.append(_record("mean_degree_lower", "lower_on", "lambda_1",
                       2.0 * g.m / g.n, lam1))
    out.append(_record("rms_degree_lower", "lower_on", "lambda_1", f.rms_degree, lam1))
    if small >= 1:
        rowsums = a * f.deg + (1.0 - a) * f.walks / f.deg
        out.append(_record("rowsum_similarity_upper", "upper_on", "lambda_1",
                           rowsums.max(), lam1,
                           note="equality for regular graphs at every alpha"))
        out.append(_record("rowsum_similarity_lower", "lower_on", "lambda_1",
                           rowsums.min(), lam1))
    else:
        why = "isolated vertex present" if g.m else "no edges"
        out.append(_skipped("rowsum_similarity_upper", "upper_on", "lambda_1", why))
        out.append(_skipped("rowsum_similarity_lower", "lower_on", "lambda_1", why))
    if g.m >= 1:
        # each edge in both orientations: a*deg(u) + (1-a)*deg(v) and the reverse
        du, dv = f.edge_deg_u, f.edge_deg_v
        forward = a * du + (1.0 - a) * dv
        backward = a * dv + (1.0 - a) * du
        out.append(_record("edge_degree_upper", "upper_on", "lambda_1",
                           max(forward.max(), backward.max()), lam1,
                           note="orientation maximum taken on each edge"))
        out.append(_record("edge_degree_lower", "lower_on", "lambda_1",
                           min(forward.min(), backward.min()), lam1,
                           note="orientation minimum taken on each edge"))
    else:
        out.append(_skipped("edge_degree_upper", "upper_on", "lambda_1", "no edges"))
        out.append(_skipped("edge_degree_lower", "lower_on", "lambda_1", "no edges"))
    squares = a * f.deg * f.deg + (1.0 - a) * f.walks
    out.append(_record("walk_square_upper", "upper_on", "lambda_1_squared",
                       squares.max(), lam1 * lam1))
    out.append(_record("walk_square_lower", "lower_on", "lambda_1_squared",
                       squares.min(), lam1 * lam1))
    return out


def lambda_min_bounds(g: Graph, alpha: float, s: Spectrum,
                      maxcut_value: int | None = None,
                      chromatic: int | None = None) -> list[BoundRecord]:
    """Bounds on the smallest eigenvalue."""
    a = check_alpha(alpha)
    if g.n == 0:
        return []
    if s.n != g.n:
        raise ParameterError("spectrum size does not match graph order")
    least = 2 if g.m else 1
    if chromatic is not None and not least <= chromatic <= g.n:
        raise ParameterError(
            f"chromatic number must lie in [{least}, {g.n}], got {chromatic}")
    if maxcut_value is not None and not 0 <= maxcut_value <= g.m:
        raise ParameterError(f"maxcut value must lie in [0, {g.m}], got {maxcut_value}")
    f = _facts(g)
    lam_min = float(s.values[-1])
    small = f.small
    out = [_record("min_degree_upper", "upper_on", "lambda_min",
                   a * small, lam_min,
                   strict=(a < 1.0 and small >= 1),
                   note="strict whenever alpha < 1 and there is no isolated vertex")]
    if g.n <= MAXCUT_MAX_VERTICES:
        cut = _cached(g, "maxcut", maxcut) if maxcut_value is None else int(maxcut_value)
        out.append(_record("maxcut_mix_upper", "upper_on", "lambda_min",
                           2.0 * g.m / g.n - 4.0 * (1.0 - a) * cut / g.n, lam_min))
        out.append(_record("maxcut_mix_upper_literal", "upper_on", "lambda_min",
                           2.0 * a * g.m / g.n - 2.0 * (1.0 - a) * cut / g.n, lam_min,
                           informational=True,
                           note="uncorrected variant, recorded for reference only"))
    else:
        out.append(_skipped("maxcut_mix_upper", "upper_on", "lambda_min",
                            f"maxcut limited to n <= {MAXCUT_MAX_VERTICES}"))
    if f.regular and g.m >= 1:
        if chromatic is None and g.n <= CHROMATIC_DEFAULT_LIMIT:
            chromatic = _cached(g, "chromatic", chromatic_number)
        if chromatic is None:
            out.append(_skipped("hoffman_regular_upper", "upper_on", "lambda_min",
                                f"chromatic number limited to n <= {CHROMATIC_DEFAULT_LIMIT}"))
        elif a < 1.0 / chromatic:
            d = f.big
            bound = (a - 1.0 / chromatic) * chromatic * d / (chromatic - 1.0)
            out.append(_record("hoffman_regular_upper", "upper_on", "lambda_min",
                               bound, lam_min, strict=False,
                               note="regular graph below its coloring threshold"))
        else:
            out.append(_skipped("hoffman_regular_upper", "upper_on", "lambda_min",
                                "inactive: alpha >= 1/chromatic"))
    return out


def global_identities(g: Graph, alpha: float, s: Spectrum) -> list[BoundRecord]:
    """Trace identities, the second-eigenvalue cap, and the diameter count bound."""
    a = check_alpha(alpha)
    if g.n == 0:
        return []
    if s.n != g.n:
        raise ParameterError("spectrum size does not match graph order")
    lam = s.values
    out = [
        _record("trace_linear", "identity", "sum_lambda",
                2.0 * a * g.m, float(lam.sum())),
        _record("trace_square", "identity", "sum_lambda_squared",
                2.0 * (1.0 - a) ** 2 * g.m + a * a * _facts(g).deg2,
                float((lam * lam).sum())),
    ]
    if g.n >= 2:
        if a >= 0.5:
            out.append(_record("second_eigenvalue_upper", "upper_on", "lambda_2",
                               a * g.n - 1.0, float(lam[1])))
        else:
            out.append(_record("second_eigenvalue_upper", "upper_on", "lambda_2",
                               g.n / 2.0 - 1.0, float(lam[1]),
                               note="equality for two disjoint cliques on n/2 vertices"))
    diam = _cached(g, "diameter", diameter)
    if diam is None:
        out.append(_skipped("distinct_diameter_lower", "lower_on", "distinct_count",
                            "graph is disconnected"))
    elif a == 1.0:
        # the walk-positivity argument behind this count needs nonzero
        # off-diagonal entries, which vanish at the right endpoint
        out.append(_skipped("distinct_diameter_lower", "lower_on", "distinct_count",
                            "matrix is diagonal at alpha = 1"))
    else:
        out.append(_record("distinct_diameter_lower", "lower_on", "distinct_count",
                           diam + 1.0, float(distinct_count(s))))
    return out


@dataclass(frozen=True)
class BoundReport:
    graph_id: str
    alpha: float
    records: tuple[BoundRecord, ...] = field(repr=False)

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.records
                     if not r.holds and not r.skipped and not r.informational)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph_id,
            "alpha": self.alpha,
            "records": [r.to_json_obj() for r in self.records],
            "violations": list(self.violations),
        }


def bound_report(g: Graph, alpha: float, s: Spectrum | None = None,
                 graph_id: str | None = None,
                 adjacency_spectrum=None,
                 maxcut_value: int | None = None,
                 chromatic: int | None = None) -> BoundReport:
    """Evaluate every applicable record family at one alpha."""
    a = check_alpha(alpha)
    if s is None:
        s = full_spectrum(alpha_matrix(g, a))
    if graph_id is None:
        graph_id = f"graph-n{g.n}-m{g.m}"
    records = []
    records.extend(radius_bounds(g, a, s, adjacency_spectrum=adjacency_spectrum))
    records.extend(lambda_min_bounds(g, a, s, maxcut_value=maxcut_value,
                                     chromatic=chromatic))
    records.extend(global_identities(g, a, s))
    return BoundReport(graph_id, a, tuple(records))


def rotation_test(g: Graph, alpha: float, u: int, v: int, w: int) -> bool:
    """Edge-rotation comparison: move edge {u,v} to {u,w} and compare radii.

    Evaluates the top eigenvector's quadratic form on the rotated graph; when
    it does not decrease, the spectral radius must strictly increase, and that
    consequence is verified numerically before returning True.
    """
    a = check_alpha(alpha)
    if a >= 1.0:
        raise ParameterError("rotation comparison needs alpha < 1")
    for x in (u, v, w):
        if not 0 <= x < g.n:
            raise IndexError(f"vertex {x} out of range for n={g.n}")
    if not g.has_edge(u, v):
        raise ParameterError(f"edge {{{u},{v}}} not present")
    if u == w or g.has_edge(u, w):
        raise ParameterError(f"target pair {{{u},{w}}} must be a non-edge")
    if not is_connected(g):
        raise ParameterError("rotation comparison needs a connected graph")
    pair = extreme_pair(alpha_matrix(g, a), "largest")
    x = pair.vector
    removed = (min(u, v), max(u, v))
    edges = tuple(e for e in g.edges if e != removed) + ((min(u, w), max(u, w)),)
    h = Graph(g.n, edges)
    q_before = quadratic_form(g, a, x)
    q_after = quadratic_form(h, a, x)
    if q_after < q_before - 1e-12 * max(1.0, abs(q_before)):
        return False
    lam_h = float(eigenvalues_only(alpha_matrix(h, a))[0])
    if not lam_h > pair.value + 1e-10:
        raise SolverError("rotation failed to increase the radius",
                          before=pair.value, after=lam_h)
    return True
