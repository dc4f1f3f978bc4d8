import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaspec import (ParameterError, alpha_matrix, complete,
                       complete_bipartite, complete_multipartite, cycle,
                       eigenvalues_only, join, join_regular_radius,
                       multipartite_radius, regular_shift, spectrum_complete,
                       spectrum_complete_bipartite,
                       spectrum_complete_multipartite, spectrum_star, star,
                       turan)
from alphaspec.closed_forms import ClosedFormSpectrum
from alphaspec.graphs import GraphSpec


@pytest.mark.parametrize("build, sizes", [
    pytest.param(complete_multipartite, lambda k: ([k, 1],), id="complete_multipartite"),
    pytest.param(GraphSpec, lambda k: ("complete", (k,)), id="GraphSpec"),
    pytest.param(multipartite_radius, lambda k: ([k, 2], 0.3), id="multipartite_radius"),
    pytest.param(spectrum_complete_multipartite, lambda k: ([k, 2], 0.3),
                 id="spectrum_complete_multipartite"),
    pytest.param(spectrum_complete, lambda k: (k, 0.3), id="spectrum_complete"),
    pytest.param(spectrum_star, lambda k: (k, 0.3), id="spectrum_star"),
    pytest.param(spectrum_complete_bipartite, lambda k: (k, 1, 0.3), id="bipartite-a"),
    pytest.param(spectrum_complete_bipartite, lambda k: (1, k, 0.3), id="bipartite-b"),
    pytest.param(join_regular_radius, lambda k: (0, k, 0, 1, 0.3), id="join-n1"),
    pytest.param(join_regular_radius, lambda k: (1, 2, 0, k, 0.3), id="join-n2"),
])
def test_sizes_must_be_integers(build, sizes):
    # a size of 2.7 once built the graph of size 2 without a word
    for bad in (2.7, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ParameterError, match="is not an integer"):
            build(*sizes(bad))
    assert build(*sizes(np.int64(3))) == build(*sizes(3))


def test_complete_known_values():
    cf = spectrum_complete(3, 0.5)
    assert cf.values_with_multiplicity == ((2.0, 1), (0.5, 2))
    cf = spectrum_complete(5, 0.0)
    assert cf.values_with_multiplicity == ((4.0, 1), (-1.0, 4))
    assert spectrum_complete(1, 0.7).values_with_multiplicity == ((0.0, 1),)


def test_star_known_values():
    cf = spectrum_star(5, 0.5)
    assert cf.expand() == pytest.approx([2.5, 0.5, 0.5, 0.5, 0.0])


def test_star_equals_bipartite_exactly():
    # identical arithmetic, bit for bit
    for n in (2, 3, 7, 20):
        for a in (0.0, 0.125, 0.5, 0.9, 1.0):
            s = spectrum_star(n, a).expand()
            b = spectrum_complete_bipartite(n - 1, 1, a).expand()
            assert np.array_equal(s, b)


def test_bipartite_symmetric_in_parts():
    for a in (0.0, 0.3, 1.0):
        x = spectrum_complete_bipartite(3, 5, a).expand()
        y = spectrum_complete_bipartite(5, 3, a).expand()
        assert np.array_equal(x, y)


def test_closed_forms_match_dense_solver():
    cases = []
    for a in (0.0, 0.4, 1.0):
        for n in (1, 2, 6, 9):
            cases.append((spectrum_complete(n, a), complete(n), a))
        for ab in ((1, 1), (2, 3), (4, 4), (1, 6)):
            cases.append((spectrum_complete_bipartite(*ab, a),
                          complete_bipartite(*ab), a))
        cases.append((spectrum_star(8, a), star(8), a))
        for sizes in ((2, 2, 2), (3, 2, 1), (5, 4, 4, 1), (1, 1, 1, 1)):
            cases.append((spectrum_complete_multipartite(sizes, a),
                          complete_multipartite(sizes), a))
    for cf, g, a in cases:
        dense = eigenvalues_only(alpha_matrix(g, a))
        assert np.max(np.abs(cf.expand() - dense)) <= 1e-9


def test_trace_matches_edge_count():
    for sizes, a in (((3, 3, 2), 0.3), ((5, 1), 0.75), ((2, 2, 2, 2), 0.0)):
        g = complete_multipartite(sizes)
        cf = spectrum_complete_multipartite(sizes, a)
        assert cf.trace() == pytest.approx(2 * a * g.m, abs=1e-9)
        assert cf.n == g.n


def test_multipartite_radius_known_values():
    # octahedron at alpha 0: adjacency radius 4
    assert multipartite_radius([2, 2, 2], 0.0) == pytest.approx(4.0, abs=1e-9)
    # K_{a,b} radius must agree with the bipartite closed form
    for a, b in ((2, 3), (1, 5), (4, 4)):
        for al in (0.0, 0.3, 0.7):
            want = spectrum_complete_bipartite(a, b, al).expand()[0]
            got = multipartite_radius([a, b], al)
            assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       alpha=st.floats(0.0, 1.0, exclude_max=True))
# 1 - 2**-53: the root lies within ulps of the largest pole alpha*n - min part
@example(parts=[1, 1], alpha=0.9999999999999999)
@example(parts=[1, 6], alpha=0.9999999999999999)
def test_multipartite_radius_matches_dense_solve(parts, alpha):
    dense = eigenvalues_only(alpha_matrix(complete_multipartite(parts), alpha))[0]
    assert multipartite_radius(parts, alpha) == pytest.approx(dense, abs=1e-9)


@st.composite
def parts_and_alpha(draw):
    """Part sizes drawn from a pool of at most three sizes, so equal sizes
    (the alpha*n - s layer) are common, with alpha often at an edge case."""
    pool = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    r = len(parts)
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0 - 1.0 / r, 1.0 - 2.0 ** -53, 1.0]),
                           st.floats(0.0, 1.0)))
    return parts, alpha, draw(st.permutations(parts))


@settings(max_examples=80, deadline=None)
@given(case=parts_and_alpha())
@example(case=([1, 6, 3], 1.0 - 2.0 ** -53, [3, 1, 6]))
@example(case=([2, 2, 2], 2.0 / 3.0, [2, 2, 2]))
@example(case=([4, 4, 1, 1], 1.0, [1, 4, 1, 4]))
def test_multipartite_spectrum_matches_dense_solve(case):
    parts, alpha, shuffled = case
    cf = spectrum_complete_multipartite(parts, alpha)
    assert cf.n == sum(parts)
    dense = eigenvalues_only(alpha_matrix(complete_multipartite(parts), alpha))
    assert np.max(np.abs(cf.expand() - dense)) <= 1e-9
    again = spectrum_complete_multipartite(shuffled, alpha)
    assert ([(v.hex(), m) for v, m in again.values_with_multiplicity]
            == [(v.hex(), m) for v, m in cf.values_with_multiplicity])


def test_multipartite_radius_degenerate_point():
    # when 1/(1-alpha) equals the number of parts the radius is alpha*n; the
    # hit is exact in floats only for two parts at alpha = 1/2
    assert multipartite_radius([4, 2], 0.5) == 0.5 * 6
    assert multipartite_radius([3, 3], 0.5) == 0.5 * 6
    assert multipartite_radius([4, 3, 3], 2.0 / 3.0) == pytest.approx(
        (2.0 / 3.0) * 10, abs=1e-9)


def test_multipartite_radius_continuous_at_boundary():
    base = multipartite_radius([3, 2, 2], 0.5)
    for eps in (1e-6, -1e-6):
        near = multipartite_radius([3, 2, 2], 0.5 + eps)
        assert abs(near - base) < 1e-4


def test_turan_radius_at_boundary_is_fraction_of_n():
    # balanced r-partite graphs meet (1 - 1/r) n at the matching alpha
    for n, r in ((6, 2), (7, 3), (6, 3)):
        a = 1.0 - 1.0 / r
        g = turan(n, r)
        dense = eigenvalues_only(alpha_matrix(g, a))[0]
        assert dense == pytest.approx((1.0 - 1.0 / r) * n, abs=1e-9)


def test_regular_shift():
    mu = eigenvalues_only(alpha_matrix(cycle(4), 0.0))
    shifted = regular_shift(mu, 2, 0.25).expand()
    assert np.allclose(shifted, [2.0, 0.5, 0.5, -1.0], atol=1e-12)
    dense = eigenvalues_only(alpha_matrix(cycle(4), 0.25))
    assert np.allclose(shifted, dense, atol=1e-10)
    with pytest.raises(ParameterError):
        regular_shift(np.array([1.0, 0.0]), 2, 0.5)  # top value must equal d


def test_join_regular_radius():
    # join of two edgeless graphs is complete bipartite
    assert join_regular_radius(0, 2, 0, 3, 0.0) == pytest.approx(math.sqrt(6))
    g = join(cycle(4), cycle(5))
    for a in (0.0, 0.35, 0.8):
        want = eigenvalues_only(alpha_matrix(g, a))[0]
        got = join_regular_radius(2, 4, 2, 5, a)
        assert got == pytest.approx(want, abs=1e-10)
    with pytest.raises(ParameterError):
        join_regular_radius(4, 4, 0, 3, 0.5)  # degree above n-1


def test_validation_errors():
    with pytest.raises(ParameterError):
        spectrum_complete(0, 0.5)
    with pytest.raises(ParameterError):
        spectrum_star(1, 0.5)
    with pytest.raises(ParameterError):
        multipartite_radius([5], 0.5)
    with pytest.raises(ParameterError):
        multipartite_radius([2, 2], 1.0)
    with pytest.raises(ParameterError):
        spectrum_complete_multipartite([2, 0], 0.5)
    with pytest.raises(ParameterError):
        ClosedFormSpectrum(((1.0, 1), (2.0, 1)), source="x")


def test_multipartite_alpha_one_is_degree_spectrum():
    cf = spectrum_complete_multipartite([3, 2, 1], 1.0)
    # degrees: n - part size, with multiplicity equal to the part size
    assert cf.values_with_multiplicity == ((5.0, 1), (4.0, 2), (3.0, 3))


def test_equal_values_share_one_pair():
    # at alpha = 1, M(1) of K_4 is 3 I: one value of multiplicity 4
    cf = spectrum_complete(4, 1.0)
    assert cf.values_with_multiplicity == ((3.0, 4),)
    assert np.array_equal(cf.expand(), [3.0, 3.0, 3.0, 3.0])
    # next to a pole a quotient eigenvalue can lie within ulps of the pole value
    a = 0.9999999999999999
    cf = spectrum_complete_multipartite([1, 6, 3], a)
    values = [v for v, _ in cf.values_with_multiplicity]
    assert len(set(values)) == len(values)
    assert cf.n == 10
    dense = eigenvalues_only(alpha_matrix(complete_multipartite([1, 6, 3]), a))
    assert np.max(np.abs(cf.expand() - dense)) <= 1e-9
