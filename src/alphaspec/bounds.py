"""Checked inequalities and identities for the spectrum of M(alpha).

Every proposition becomes a BoundRecord with a uniform slack/holds convention:
slack >= 0 means the inequality is satisfied with margin, and holds applies a
1e-9 relative tolerance. Records whose preconditions fail are emitted as
skipped markers rather than dropped silently; informational records are
reported but never counted as violations.

What the records use of a graph but not of alpha (degrees, 2-walks, per-edge
degrees, diameter, and the adjacency spectrum, maxcut and chromatic number
when they are not passed in) is computed once per Graph instance and kept on
it, so a sweep over alpha pays for it once. Records are evaluated on Python
floats in the loop that builds them: at the orders most reports see, a numpy
call costs more than the arithmetic it does. Python floats are IEEE doubles,
and each value takes the operations of a float64 array evaluation in the same
order, so its bits are the same.
"""

import functools
import math
from dataclasses import dataclass, field, fields

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
        # item stores in place of the generated frozen __init__'s
        # object.__setattr__ per field: a report builds dozens of records
        d = self.__dict__
        d["name"], d["side"], d["target"] = name, side, target
        d["bound_value"], d["spectral_value"], d["slack"] = bound_value, spectral_value, slack
        d["holds"], d["strict"], d["informational"] = holds, strict, informational
        d["skipped"], d["note"] = skipped, note

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
    on alpha, as Python numbers. Integer sums stay Python ints, so every
    bound is computed from the same values, in the same order, as from
    g.degrees directly.

    walk_ranges and neighbour_ranges hold, per distinct degree d, the least
    and greatest 2-walk count and neighbour degree of a vertex of degree d.
    At fixed d the row sum a*d + (1-a)*w/d, the walk square a*d*d + (1-a)*w
    and the oriented edge value a*d + (1-a)*d' never fall as w or d' grows
    (their coefficients are >= 0 and IEEE rounding is monotone), so their
    extremes over all vertices or oriented edges are extremes over these.
    """

    def __init__(self, g: Graph):
        deg = g.degrees
        self.small, self.big = g.min_degree(), g.max_degree()
        self.regular = g.is_regular()
        self.deg2 = sum(d * d for d in deg)
        self.rms_degree = math.sqrt(self.deg2 / g.n)
        self.deg_sorted = [float(d) for d in sorted(deg, reverse=True)]
        self.walk_ranges = _ranges(zip(deg, walk2_counts(g)))
        ends = {(deg[u], deg[v]) for u, v in g.edges}
        self.neighbour_ranges = _ranges(ends | {(dv, du) for du, dv in ends})


def _ranges(pairs) -> tuple[tuple[int, int, int], ...]:
    """(d, least x, greatest x) for each distinct d among the (d, x) pairs."""
    least, greatest = {}, {}
    for d, x in sorted(pairs, reverse=True):
        greatest.setdefault(d, x)
        least[d] = x
    return tuple((d, least[d], greatest[d]) for d in greatest)


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
    lam = s.values.tolist()
    mu = mu.tolist()
    lam1 = lam[0]
    big, small = f.big, f.small
    out = []
    for name, target, bound, value in zip(majorization, targets, f.deg_sorted, lam):
        slack = bound - value
        out.append(BoundRecord(name, "upper_on", target, bound, value, slack,
                               slack >= -(HOLDS_REL_TOL * max(1.0, abs(bound)))))
    low, high = a * small, a * big
    # interleaved: weyl_mix_lower_k1, weyl_mix_upper_k1, weyl_mix_lower_k2, ...
    for lower, upper, target, m, value in zip(lower_names, upper_names, targets, mu, lam):
        mixed = (1.0 - a) * m
        bound = low + mixed
        slack = value - bound
        out.append(BoundRecord(lower, "lower_on", target, bound, value, slack,
                               slack >= -(HOLDS_REL_TOL * max(1.0, abs(bound)))))
        bound = high + mixed
        slack = bound - value
        out.append(BoundRecord(upper, "upper_on", target, bound, value, slack,
                               slack >= -(HOLDS_REL_TOL * max(1.0, abs(bound)))))
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
                       high + (1.0 - a) * mu[0], lam1,
                       note="equality iff some component is max_degree-regular"))
    out.append(_record("mean_degree_lower", "lower_on", "lambda_1",
                       2.0 * g.m / g.n, lam1))
    out.append(_record("rms_degree_lower", "lower_on", "lambda_1", f.rms_degree, lam1))
    if small >= 1:
        out.append(_record("rowsum_similarity_upper", "upper_on", "lambda_1",
                           max(a * d + (1.0 - a) * most / d for d, _, most in f.walk_ranges),
                           lam1, note="equality for regular graphs at every alpha"))
        out.append(_record("rowsum_similarity_lower", "lower_on", "lambda_1",
                           min(a * d + (1.0 - a) * least / d
                               for d, least, _ in f.walk_ranges), lam1))
    else:
        why = "isolated vertex present" if g.m else "no edges"
        out.append(_skipped("rowsum_similarity_upper", "upper_on", "lambda_1", why))
        out.append(_skipped("rowsum_similarity_lower", "lower_on", "lambda_1", why))
    if g.m >= 1:
        # each edge in both orientations: a*deg(u) + (1-a)*deg(v) and the reverse
        out.append(_record("edge_degree_upper", "upper_on", "lambda_1",
                           max(a * d + (1.0 - a) * most for d, _, most in f.neighbour_ranges),
                           lam1, note="orientation maximum taken on each edge"))
        out.append(_record("edge_degree_lower", "lower_on", "lambda_1",
                           min(a * d + (1.0 - a) * least
                               for d, least, _ in f.neighbour_ranges),
                           lam1, note="orientation minimum taken on each edge"))
    else:
        out.append(_skipped("edge_degree_upper", "upper_on", "lambda_1", "no edges"))
        out.append(_skipped("edge_degree_lower", "lower_on", "lambda_1", "no edges"))
    out.append(_record("walk_square_upper", "upper_on", "lambda_1_squared",
                       max(a * d * d + (1.0 - a) * most for d, _, most in f.walk_ranges),
                       lam1 * lam1))
    out.append(_record("walk_square_lower", "lower_on", "lambda_1_squared",
                       min(a * d * d + (1.0 - a) * least for d, least, _ in f.walk_ranges),
                       lam1 * lam1))
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
