import dataclasses
import itertools
import math

import numpy as np
import pytest

from alphaspec import (BoundRecord, BoundReport, Graph, ParameterError,
                       SolverError, alpha_matrix, assemble, bound_report,
                       chromatic_number, complete, complete_bipartite, cycle,
                       diameter, disjoint_union, distinct_count, edgeless,
                       eigenvalues_only, full_spectrum, maxcut, path,
                       rotation_test, star)
from alphaspec import bounds
from alphaspec.combinatorics import CHROMATIC_DEFAULT_LIMIT, MAXCUT_MAX_VERTICES
from alphaspec.graphs import walk2_counts
from conftest import named_corpus, rand_connected, rand_graph

ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0)


def by_name(report, name):
    recs = [r for r in report.records if r.name == name]
    assert recs, f"no record named {name}"
    return recs[0]


def test_no_violations_on_corpus(rng):
    graphs = named_corpus()
    for _ in range(40):
        graphs.append(rand_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.9))))
    for g in graphs:
        for a in ALPHAS:
            rep = bound_report(g, a)
            assert rep.violations == (), (g.n, g.edges, a, rep.violations)


def test_report_shape_and_json():
    rep = bound_report(path(4), 0.3, graph_id="p4")
    doc = rep.to_json_obj()
    assert doc["graph"] == "p4" and doc["alpha"] == 0.3
    names = {r["name"] for r in doc["records"]}
    assert {"trace_linear", "trace_square", "lovasz_star_lower",
            "min_degree_upper", "maxcut_mix_upper"} <= names
    assert doc["violations"] == []
    rec = by_name(rep, "degree_majorization_k1")
    assert rec.side == "upper_on" and rec.target == "lambda_1"


def test_regular_equalities_have_zero_slack():
    # row-sum similarity bounds pinch to equality on regular graphs
    for g in (cycle(6), complete(5), complete_bipartite(3, 3)):
        for a in (0.2, 0.5, 0.8):
            rep = bound_report(g, a)
            assert abs(by_name(rep, "rowsum_similarity_upper").slack) <= 1e-9
            assert abs(by_name(rep, "rowsum_similarity_lower").slack) <= 1e-9
            assert abs(by_name(rep, "adjacency_mix_upper").slack) <= 1e-9
            assert abs(by_name(rep, "mean_degree_lower").slack) <= 1e-9


def test_star_makes_lovasz_bound_tight():
    for a in (0.0, 0.3, 0.6, 1.0):
        rep = bound_report(star(6), a)
        assert abs(by_name(rep, "lovasz_star_lower").slack) <= 1e-9
    # non-star connected graphs sit strictly above
    rep = bound_report(path(4), 0.3)
    assert by_name(rep, "lovasz_star_lower").slack > 1e-3


def test_two_cliques_pin_second_eigenvalue():
    g = disjoint_union([complete(3), complete(3)])
    for a in (0.0, 0.2, 0.4):
        rep = bound_report(g, a)
        rec = by_name(rep, "second_eigenvalue_upper")
        assert abs(rec.slack) <= 1e-9


def test_maxcut_corrected_tight_on_k4_where_literal_fails():
    rep = bound_report(complete(4), 0.0)
    corrected = by_name(rep, "maxcut_mix_upper")
    assert corrected.holds and abs(corrected.slack) <= 1e-9
    literal = by_name(rep, "maxcut_mix_upper_literal")
    assert literal.informational
    assert not literal.holds  # claims lambda_min <= -2, but lambda_min is -1
    assert rep.violations == ()


def test_maxcut_literal_can_hold_elsewhere():
    rep = bound_report(cycle(5), 0.0)
    literal = by_name(rep, "maxcut_mix_upper_literal")
    assert literal.holds


def test_hoffman_tight_on_complete_graph():
    rep = bound_report(complete(4), 0.0)
    rec = by_name(rep, "hoffman_regular_upper")
    assert not rec.skipped
    assert abs(rec.slack) <= 1e-9
    # inactive for alpha at or above 1/chromatic
    rep = bound_report(complete(4), 0.5)
    assert by_name(rep, "hoffman_regular_upper").skipped


@pytest.mark.parametrize("g,kw", [
    (complete(3), {"chromatic": 0}),  # outside [1, n]; used to divide by zero
    (complete(3), {"chromatic": 1}),  # an edge needs 2 colors; used to divide by zero
    (complete(3), {"chromatic": 4}),  # more colors than vertices
    (edgeless(3), {"chromatic": 0}),
    (complete(3), {"maxcut_value": 10 ** 6}),  # above m; used to report false violations
    (complete(3), {"maxcut_value": -1}),
])
def test_rejects_impossible_chromatic_and_maxcut(g, kw):
    with pytest.raises(ParameterError):
        bound_report(g, 0.3, **kw)


def test_accepts_extreme_possible_chromatic_and_maxcut():
    assert bound_report(edgeless(3), 0.3, chromatic=1, maxcut_value=0).violations == ()
    rep = bound_report(complete(3), 0.3, chromatic=3, maxcut_value=2)
    assert rep.to_json_obj() == bound_report(complete(3), 0.3).to_json_obj()


def test_min_degree_upper_strictness_flag():
    rec = by_name(bound_report(cycle(5), 0.3), "min_degree_upper")
    assert rec.strict
    rec = by_name(bound_report(cycle(5), 1.0), "min_degree_upper")
    assert not rec.strict
    rec = by_name(bound_report(edgeless(3), 0.3), "min_degree_upper")
    assert not rec.strict


def test_skips_on_degenerate_inputs():
    rep = bound_report(edgeless(4), 0.4)
    assert by_name(rep, "lovasz_star_lower").skipped
    assert by_name(rep, "rowsum_similarity_upper").skipped
    assert by_name(rep, "edge_degree_upper").skipped
    rep = bound_report(disjoint_union([complete(2), complete(2)]), 0.4)
    assert by_name(rep, "distinct_diameter_lower").skipped
    rep = bound_report(cycle(5), 1.0)
    assert by_name(rep, "distinct_diameter_lower").skipped
    rep = bound_report(cycle(17), 0.1)
    assert by_name(rep, "hoffman_regular_upper").skipped


def test_maxcut_skipped_above_capacity():
    g = cycle(25)
    rep = bound_report(g, 0.3)
    assert by_name(rep, "maxcut_mix_upper").skipped
    assert rep.violations == ()


def test_degree_majorization_on_star():
    rep = bound_report(star(5), 1.0)
    rec = by_name(rep, "degree_majorization_k1")
    assert abs(rec.slack) <= 1e-12  # lambda_1 of the degree matrix is max degree


def test_weyl_sandwich_equality_for_regular():
    rep = bound_report(cycle(8), 0.35)
    for k in (1, 4, 8):
        lo = by_name(rep, f"weyl_mix_lower_k{k}")
        hi = by_name(rep, f"weyl_mix_upper_k{k}")
        assert abs(lo.slack) <= 1e-9 and abs(hi.slack) <= 1e-9


def test_rotation_increases_radius():
    # moving the edge (2,3) of a path onto the non-edge (0,2) closes a triangle
    assert rotation_test(path(4), 0.3, 2, 3, 0) is True


def test_rotation_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        rotation_test(path(4), 1.0, 2, 3, 0)  # needs alpha < 1
    with pytest.raises(ParameterError):
        rotation_test(path(4), 0.3, 0, 2, 1)  # (0,2) is not an edge
    with pytest.raises(ParameterError):
        rotation_test(path(4), 0.3, 1, 2, 0)  # (1,0) already an edge
    with pytest.raises(ParameterError):
        rotation_test(disjoint_union([complete(2), complete(2)]), 0.3, 0, 1, 2)


def test_rotation_reports_failed_hypothesis(rng):
    # aim the edge at a low-weight endpoint: hypothesis x_w >= x_v fails
    g = star(5)
    # move (0,4) to (1,2)? 1 and 2 are leaves; w must be non-adjacent to u
    # leaves are pairwise non-adjacent, center has the largest Perron entry
    assert rotation_test(g, 0.3, 1, 0, 2) is False


def test_identity_records_hold(rng):
    for _ in range(10):
        g = rand_connected(rng, int(rng.integers(2, 10)), extra=2)
        a = float(rng.random())
        rep = bound_report(g, a)
        for name in ("trace_linear", "trace_square"):
            rec = by_name(rep, name)
            assert rec.holds and rec.side == "identity"


def test_adjacency_spectrum_is_validated():
    g = cycle(5)
    mu = eigenvalues_only(assemble(g, "adjacency"))
    for bad in (mu[:4], [2.0] * 7, np.where(np.arange(5) == 2, np.nan, mu),
                np.full(5, np.inf), mu.reshape(5, 1), ["a"] * 5):
        with pytest.raises(ParameterError):
            bound_report(g, 0.3, adjacency_spectrum=bad)
    with pytest.raises(ParameterError):
        bound_report(edgeless(0), 0.3, adjacency_spectrum=[0.0])
    assert bound_report(g, 0.3, adjacency_spectrum=list(mu)).violations == ()


# ---------------------------------------------------------------- oracle
# The record-by-record evaluation the array version replaced, kept as written
# so that every report can be compared with it exactly.

def _oracle_tol(bound):
    return bounds.HOLDS_REL_TOL * max(1.0, abs(bound))


def _oracle_record(name, side, target, bound, spectral, strict=False,
                   informational=False, note=""):
    bound = float(bound)
    spectral = float(spectral)
    if side == "upper_on":
        slack = bound - spectral
        holds = slack >= -_oracle_tol(bound)
    elif side == "lower_on":
        slack = spectral - bound
        holds = slack >= -_oracle_tol(bound)
    elif side == "identity":
        slack = bound - spectral
        holds = abs(slack) <= _oracle_tol(bound)
    else:
        raise ParameterError(f"unknown side {side!r}")
    return BoundRecord(name, side, target, bound, spectral, slack, holds,
                       strict=strict, informational=informational, note=note)


def _oracle_skipped(name, side, target, note):
    return BoundRecord(name, side, target, None, None, None, True,
                       skipped=True, note=note)


def _oracle_radius_bounds(g, a, s, adjacency_spectrum=None):
    if g.n == 0:
        return []
    lam = s.values
    lam1 = float(lam[0])
    deg = g.degrees
    big = g.max_degree()
    small = g.min_degree()
    deg_sorted = sorted(deg, reverse=True)
    if adjacency_spectrum is None:
        adjacency_spectrum = eigenvalues_only(assemble(g, "adjacency"))
    mu = np.asarray(adjacency_spectrum, dtype=np.float64)
    out = []
    for k in range(1, g.n + 1):
        out.append(_oracle_record(f"degree_majorization_k{k}", "upper_on", f"lambda_{k}",
                                  deg_sorted[k - 1], lam[k - 1]))
    for k in range(1, g.n + 1):
        out.append(_oracle_record(f"weyl_mix_lower_k{k}", "lower_on", f"lambda_{k}",
                                  a * small + (1.0 - a) * mu[k - 1], lam[k - 1]))
        out.append(_oracle_record(f"weyl_mix_upper_k{k}", "upper_on", f"lambda_{k}",
                                  a * big + (1.0 - a) * mu[k - 1], lam[k - 1]))
    if g.m >= 1:
        disc = a * a * (big + 1.0) ** 2 + 4.0 * big * (1.0 - 2.0 * a)
        star_bound = 0.5 * (a * (big + 1.0) + math.sqrt(disc))
        out.append(_oracle_record("lovasz_star_lower", "lower_on", "lambda_1",
                                  star_bound, lam1,
                                  note="equality iff connected and the star on "
                                       "max_degree+1 vertices"))
        if a <= 0.5:
            out.append(_oracle_record("affine_degree_lower", "lower_on", "lambda_1",
                                      a * (big + 1.0), lam1))
        else:
            out.append(_oracle_record("affine_degree_lower", "lower_on", "lambda_1",
                                      a * big, lam1))
            if a < 1.0:
                out.append(_oracle_record(
                    "affine_degree_lower_literal", "lower_on", "lambda_1",
                    a * big + 1.0 - a, lam1, informational=True,
                    note="fails on stars for alpha above one half; "
                         "kept for reference only"))
    else:
        out.append(_oracle_skipped("lovasz_star_lower", "lower_on", "lambda_1", "no edges"))
    out.append(_oracle_record("adjacency_lower", "lower_on", "lambda_1", mu[0], lam1))
    out.append(_oracle_record("adjacency_mix_upper", "upper_on", "lambda_1",
                              a * big + (1.0 - a) * mu[0], lam1,
                              note="equality iff some component is max_degree-regular"))
    out.append(_oracle_record("mean_degree_lower", "lower_on", "lambda_1",
                              2.0 * g.m / g.n, lam1))
    out.append(_oracle_record("rms_degree_lower", "lower_on", "lambda_1",
                              math.sqrt(sum(d * d for d in deg) / g.n), lam1))
    walks = walk2_counts(g)
    if small >= 1:
        rowsums = [a * deg[u] + (1.0 - a) * walks[u] / deg[u] for u in range(g.n)]
        out.append(_oracle_record("rowsum_similarity_upper", "upper_on", "lambda_1",
                                  max(rowsums), lam1,
                                  note="equality for regular graphs at every alpha"))
        out.append(_oracle_record("rowsum_similarity_lower", "lower_on", "lambda_1",
                                  min(rowsums), lam1))
    else:
        why = "isolated vertex present" if g.m else "no edges"
        out.append(_oracle_skipped("rowsum_similarity_upper", "upper_on", "lambda_1", why))
        out.append(_oracle_skipped("rowsum_similarity_lower", "lower_on", "lambda_1", why))
    if g.m >= 1:
        per_edge = [(a * deg[u] + (1.0 - a) * deg[v],
                     a * deg[v] + (1.0 - a) * deg[u]) for u, v in g.edges]
        out.append(_oracle_record("edge_degree_upper", "upper_on", "lambda_1",
                                  max(max(p) for p in per_edge), lam1,
                                  note="orientation maximum taken on each edge"))
        out.append(_oracle_record("edge_degree_lower", "lower_on", "lambda_1",
                                  min(min(p) for p in per_edge), lam1,
                                  note="orientation minimum taken on each edge"))
    else:
        out.append(_oracle_skipped("edge_degree_upper", "upper_on", "lambda_1", "no edges"))
        out.append(_oracle_skipped("edge_degree_lower", "lower_on", "lambda_1", "no edges"))
    squares = [a * deg[u] * deg[u] + (1.0 - a) * walks[u] for u in range(g.n)]
    out.append(_oracle_record("walk_square_upper", "upper_on", "lambda_1_squared",
                              max(squares), lam1 * lam1))
    out.append(_oracle_record("walk_square_lower", "lower_on", "lambda_1_squared",
                              min(squares), lam1 * lam1))
    return out


def _oracle_lambda_min_bounds(g, a, s, maxcut_value=None, chromatic=None):
    if g.n == 0:
        return []
    lam_min = float(s.values[-1])
    small = g.min_degree()
    out = [_oracle_record("min_degree_upper", "upper_on", "lambda_min",
                          a * small, lam_min,
                          strict=(a < 1.0 and small >= 1),
                          note="strict whenever alpha < 1 and there is no isolated vertex")]
    if g.n <= MAXCUT_MAX_VERTICES:
        cut = maxcut(g) if maxcut_value is None else int(maxcut_value)
        out.append(_oracle_record("maxcut_mix_upper", "upper_on", "lambda_min",
                                  2.0 * g.m / g.n - 4.0 * (1.0 - a) * cut / g.n, lam_min))
        out.append(_oracle_record("maxcut_mix_upper_literal", "upper_on", "lambda_min",
                                  2.0 * a * g.m / g.n - 2.0 * (1.0 - a) * cut / g.n,
                                  lam_min, informational=True,
                                  note="uncorrected variant, recorded for reference only"))
    else:
        out.append(_oracle_skipped("maxcut_mix_upper", "upper_on", "lambda_min",
                                   f"maxcut limited to n <= {MAXCUT_MAX_VERTICES}"))
    if g.is_regular() and g.m >= 1:
        if chromatic is None and g.n <= CHROMATIC_DEFAULT_LIMIT:
            chromatic = chromatic_number(g)
        if chromatic is None:
            out.append(_oracle_skipped(
                "hoffman_regular_upper", "upper_on", "lambda_min",
                f"chromatic number limited to n <= {CHROMATIC_DEFAULT_LIMIT}"))
        elif a < 1.0 / chromatic:
            d = g.max_degree()
            bound = (a - 1.0 / chromatic) * chromatic * d / (chromatic - 1.0)
            out.append(_oracle_record("hoffman_regular_upper", "upper_on", "lambda_min",
                                      bound, lam_min, strict=False,
                                      note="regular graph below its coloring threshold"))
        else:
            out.append(_oracle_skipped("hoffman_regular_upper", "upper_on", "lambda_min",
                                       "inactive: alpha >= 1/chromatic"))
    return out


def _oracle_global_identities(g, a, s):
    if g.n == 0:
        return []
    lam = s.values
    deg2 = sum(d * d for d in g.degrees)
    out = [
        _oracle_record("trace_linear", "identity", "sum_lambda",
                       2.0 * a * g.m, float(lam.sum())),
        _oracle_record("trace_square", "identity", "sum_lambda_squared",
                       2.0 * (1.0 - a) ** 2 * g.m + a * a * deg2,
                       float((lam * lam).sum())),
    ]
    if g.n >= 2:
        if a >= 0.5:
            out.append(_oracle_record("second_eigenvalue_upper", "upper_on", "lambda_2",
                                      a * g.n - 1.0, float(lam[1])))
        else:
            out.append(_oracle_record("second_eigenvalue_upper", "upper_on", "lambda_2",
                                      g.n / 2.0 - 1.0, float(lam[1]),
                                      note="equality for two disjoint cliques on n/2 vertices"))
    diam = diameter(g)
    if diam is None:
        out.append(_oracle_skipped("distinct_diameter_lower", "lower_on", "distinct_count",
                                   "graph is disconnected"))
    elif a == 1.0:
        out.append(_oracle_skipped("distinct_diameter_lower", "lower_on", "distinct_count",
                                   "matrix is diagonal at alpha = 1"))
    else:
        out.append(_oracle_record("distinct_diameter_lower", "lower_on", "distinct_count",
                                  diam + 1.0, float(distinct_count(s))))
    return out


def _oracle_report(g, a, s, mu, cut, chrom):
    records = (_oracle_radius_bounds(g, a, s, adjacency_spectrum=mu)
               + _oracle_lambda_min_bounds(g, a, s, maxcut_value=cut, chromatic=chrom)
               + _oracle_global_identities(g, a, s))
    return BoundReport(f"graph-n{g.n}-m{g.m}", a, tuple(records))


ORACLE_ALPHAS = tuple(k / 10 for k in range(11)) + (0.35, 1.0 - 2.0 ** -53)


def _oracle_corpus():
    rng = np.random.default_rng(20261018)
    out = []
    for n in range(5):  # every labeled graph on n <= 4 vertices
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            out.append(Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)))
    for _ in range(10):
        n = int(rng.integers(5, 12))
        out.append(edgeless(n))
        k = int(rng.integers(1, n - 2))
        out.append(disjoint_union([rand_connected(rng, k, extra=1),
                                   rand_connected(rng, n - k, extra=2)]))
        out.append(disjoint_union([rand_connected(rng, n - 1, extra=3), edgeless(1)]))
    out += [rand_connected(rng, int(rng.integers(2, 15)), extra=int(rng.integers(0, 12)))
            for _ in range(100)]
    out += [rand_graph(rng, 40, 0.5) for _ in range(2)]
    return out


def test_reports_equal_record_by_record_oracle():
    """Every record equals the scalar evaluation exactly: values, types and
    order (compared by repr). Without the precomputed graph values, an equal
    graph fills its own cache and gives the same records."""
    for g in _oracle_corpus():
        mu = eigenvalues_only(assemble(g, "adjacency")) if g.n else None
        cut = maxcut(g) if 0 < g.n <= MAXCUT_MAX_VERTICES else None
        chrom = chromatic_number(g) if 0 < g.n <= CHROMATIC_DEFAULT_LIMIT else None
        twin = Graph(g.n, g.edges)
        for a in ORACLE_ALPHAS:
            s = full_spectrum(alpha_matrix(g, a))
            want = _oracle_report(g, a, s, mu, cut, chrom)
            given = bound_report(g, a, s, adjacency_spectrum=mu,
                                 maxcut_value=cut, chromatic=chrom)
            assert repr(given.to_json_obj()) == repr(want.to_json_obj()), (g.n, g.edges, a)
            assert bound_report(twin, a, s) == given, (g.n, g.edges, a)


def test_graph_values_are_computed_once_per_instance(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return diameter(g)

    monkeypatch.setattr(bounds, "diameter", counted)
    g = rand_connected(np.random.default_rng(5), 9, extra=4)
    for a in ORACLE_ALPHAS[:11]:
        bound_report(g, a)
    assert len(calls) == 1
    twin = Graph(g.n, g.edges)
    assert twin == g
    bound_report(twin, 0.5)
    assert len(calls) == 2 and calls[1] is twin


def test_bound_record_api():
    fields = ["name", "side", "target", "bound_value", "spectral_value", "slack",
              "holds", "strict", "informational", "skipped", "note"]
    rec = BoundRecord("x", "upper_on", "lambda_1", 2.0, 1.5, 0.5, True)
    assert [f.name for f in dataclasses.fields(BoundRecord)] == fields
    assert list(rec.to_json_obj()) == fields
    assert rec.to_json_obj() == {
        "name": "x", "side": "upper_on", "target": "lambda_1", "bound_value": 2.0,
        "spectral_value": 1.5, "slack": 0.5, "holds": True, "strict": False,
        "informational": False, "skipped": False, "note": ""}
    twin = BoundRecord(name="x", side="upper_on", target="lambda_1", bound_value=2.0,
                       spectral_value=1.5, slack=0.5, holds=True, strict=False)
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != dataclasses.replace(rec, note="y")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.slack = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.name
    rep = bound_report(path(4), 0.3)
    assert all(list(r.to_json_obj()) == fields for r in rep.records)
