"""The benchmark's workloads: the inputs each makes from the seed, the batch of
calls a run repeats, and the check applied to every call's output.

A batch is a list of groups of calls; the calls of a group see each other's
outputs, which are dropped once the group has been checked. Every call goes to
the package through a module attribute looked up at call time (``cli.main``,
``extremal.maximize_over_class``), so the tracer's wrappers see it. A check
returns None when the output is right and a one-line reason otherwise. Checks
run outside the timed calls and call nothing the tracer wraps.
"""

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from alphaspec import (bounds, cli, closed_forms, combinatorics, eigensolver,
                       extremal, graphs, matrices)

GRID = tuple(k / 10 for k in range(11))
SPECTRUM_TOL = 1e-9
RADIUS_TOL = 1e-8


@dataclass(frozen=True)
class Call:
    """One call into the package. fn and check get the group's outputs so far, by key."""

    key: str
    fn: Callable[[dict], object]
    check: Callable[[object, dict], str | None]


# A workload is made from (seed, smoke) and returns batch(i): the groups of
# calls of batch i, built before timing.
Batch = Callable[[int], list[list[Call]]]


# ---------------------------------------------------------------- oracles

def edge_bits(n: int) -> dict[tuple[int, int], int]:
    """Bit of each vertex pair in an edge mask: (0,1), (0,2), ..., (n-2,n-1)."""
    return {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}


def multipartite_masks(n: int, r: int) -> dict[int, tuple[int, ...]]:
    """Edge mask -> part sizes of every labeled complete r-partite graph on n vertices."""
    bits = edge_bits(n)
    out = {}
    for labels in itertools.product(range(r), repeat=n):
        if len(set(labels)) != r:
            continue
        mask = sum(1 << i for (u, v), i in bits.items() if labels[u] != labels[v])
        out[mask] = tuple(sorted((labels.count(k) for k in range(r)), reverse=True))
    return out


def edges_to_mask(n: int, edges) -> int:
    bits = edge_bits(n)
    return sum(1 << bits[(min(u, v), max(u, v))] for u, v in edges)


def alpha_matrix_np(n: int, edges, alpha: float) -> np.ndarray:
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return alpha * np.diag(adj.sum(axis=1)) + (1.0 - alpha) * adj


def reference_spectrum(n: int, edges, alpha: float) -> np.ndarray:
    return np.linalg.eigvalsh(alpha_matrix_np(n, edges, alpha))[::-1]


def spectrum_gap(values, reference) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != reference.shape:
        return float("inf")
    return float(np.abs(values - reference).max(initial=0.0))


def is_bipartite(n: int, edges) -> bool:
    """Two-colouring by search, from the edge list: touching the Graph's cached
    properties here would do part of the program's work before the timer starts."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


# ---------------------------------------------------------------- scans

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _shapes_of(masks: dict, n: int, edge_lists) -> list[tuple[int, ...]]:
    return sorted(masks.get(edges_to_mask(n, el), ()) for el in edge_lists)


def turan_shape(n: int, r: int) -> tuple[int, ...]:
    return tuple(sorted((n // r + (k < n % r) for k in range(r)), reverse=True))


def verify_turan_call(n: int, r: int, alphas, regimes, masks) -> Call:
    """CLI verify-turan --json; each alpha's maximizers are checked against theory."""
    balanced = turan_shape(n, r)
    split_shape = (n - r + 1,) + (1,) * (r - 1)
    shapes = {"turan": [balanced], "split": [split_shape],
              "tie": sorted(set(masks.values()))}
    want = []
    for a, regime in zip(alphas, regimes):
        shape = balanced if regime != "split" else split_shape
        want.append((regime, closed_forms.multipartite_radius(shape, a), shapes[regime]))
    argv = ["verify-turan", "--n", str(n), "--r", str(r), "--alphas",
            ",".join(repr(float(a)) for a in alphas), "--workers", "1", "--json"]

    def check(res, _outs):
        code, text, err = res
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        doc = json.loads(text)
        if doc.get("ok") is not True:
            return "verify-turan reported ok=false"
        got = doc["checks"]
        if [c["regime"] for c in got] != [w[0] for w in want]:
            return f"regimes {[c['regime'] for c in got]}"
        for c, (regime, radius, shape) in zip(got, want):
            if abs(c["max_radius"] - radius) > RADIUS_TOL:
                return f"alpha {c['alpha']}: max {c['max_radius']} vs {radius}"
            if _shapes_of(masks, n, c["maximizer_edge_lists"]) != shape:
                return f"alpha {c['alpha']}: maximizer classes differ"
        return None

    return Call(f"verify-turan n={n} r={r}", lambda _outs: run_cli(argv), check)


def chromatic_tie_call(n: int, r: int, masks) -> Call:
    """maximize_over_class(r_chromatic) at the boundary: every complete r-partite graph ties."""
    a = 1.0 - 1.0 / r
    radius = closed_forms.multipartite_radius(turan_shape(n, r), a)
    shapes = sorted(set(masks.values()))

    def check(res, _outs):
        if abs(res.max_radius - radius) > RADIUS_TOL:
            return f"max {res.max_radius} vs {radius}"
        if set(res.maximizers) != set(masks):
            return f"{len(res.maximizers)} labeled maximizers, expected {len(masks)}"
        if _shapes_of(masks, n, (g.edges for g in res.maximizer_reps)) != shapes:
            return "maximizer classes differ"
        return None

    return Call(f"r_chromatic n={n} r={r}",
                lambda _outs: extremal.maximize_over_class(n, r, a, "r_chromatic", workers=1),
                check)


def turan_scan(seed: int, smoke: bool) -> Batch:
    rng = np.random.default_rng(seed)
    calls = []
    for n, r in ((5, 2), (5, 3)) if smoke else ((7, 2), (6, 3)):
        b = 1.0 - 1.0 / r
        alphas = (float(rng.uniform(0.0, b - 0.05)), float(rng.uniform(b + 0.05, 0.95)))
        calls.append(verify_turan_call(n, r, alphas, ("turan", "split"),
                                       multipartite_masks(n, r)))
    return lambda i: [[c] for c in calls]


def boundary_ties(seed: int, smoke: bool) -> Batch:
    calls = []
    for n, r in ((5, 2), (5, 3)) if smoke else ((7, 2), (6, 3)):
        masks = multipartite_masks(n, r)
        calls.append(verify_turan_call(n, r, (1.0 - 1.0 / r,), ("tie",), masks))
        calls.append(chromatic_tie_call(n, r, masks))
    # the boundary is fixed by theory, so the seed only sets the call order
    order = np.random.default_rng(seed).permutation(len(calls))
    return lambda i: [[calls[k]] for k in order]


# ---------------------------------------------------------------- spectra

def gnp(rng, n: int, p: float):
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return graphs.Graph(n, tuple(zip(iu[keep].tolist(), iv[keep].tolist())))


def sweep_check(g, closed_key: str | None):
    def check(sweep, outs):
        for a, s in zip(GRID, sweep.spectra):
            gap = spectrum_gap(s.values, reference_spectrum(g.n, g.edges, a))
            if gap > SPECTRUM_TOL:
                return f"alpha {a}: differs from numpy by {gap:.2e}"
        if closed_key is not None:
            for a, s, cf in zip(GRID, sweep.spectra, outs[closed_key]):
                gap = spectrum_gap(s.values, cf.expand())
                if gap > SPECTRUM_TOL:
                    return f"alpha {a}: differs from the closed form by {gap:.2e}"
        if sweep.alphas != GRID:
            return "sweep grid differs"
        return None
    return check


def psd_check(g):
    def check(t, _outs):
        lam = float(np.linalg.eigvalsh(alpha_matrix_np(g.n, g.edges, t))[0])
        if t == 0.0:
            return None if lam >= -1e-10 else f"threshold 0 but lambda_min {lam}"
        return None if abs(lam) <= RADIUS_TOL else f"lambda_min {lam} at threshold {t}"
    return check


def no_violations(rep, _outs):
    return None if rep.violations == () else f"violations {rep.violations}"


def closed_check(g):
    def check(spectra, _outs):
        for a, cf in zip(GRID, spectra):
            gap = spectrum_gap(cf.expand(), reference_spectrum(g.n, g.edges, a))
            if gap > SPECTRUM_TOL:
                return f"alpha {a}: differs from numpy by {gap:.2e}"
        return None
    return check


def spectra_calls(tag: str, g, bound_alpha: float, parts=None) -> list[Call]:
    calls = []
    if parts is not None:
        calls.append(Call(
            f"{tag} closed",
            lambda _outs: [closed_forms.spectrum_complete_multipartite(parts, a)
                           for a in GRID],
            closed_check(g)))
    calls += [
        Call(f"{tag} sweep", lambda _outs: eigensolver.alpha_sweep(g, GRID),
             sweep_check(g, f"{tag} closed" if parts is not None else None)),
        Call(f"{tag} psd", lambda _outs: eigensolver.psd_threshold(g), psd_check(g)),
        Call(f"{tag} bounds", lambda _outs: bounds.bound_report(g, bound_alpha),
             no_violations),
    ]
    return calls


def shuffled(rng, groups: list) -> list:
    """The groups in a seeded random order, so that no size class runs as one
    block in one phase of the host's speed."""
    return [groups[k] for k in rng.permutation(len(groups))]


def composition(rng, n: int, parts: int) -> list[int]:
    cuts = np.sort(rng.choice(np.arange(1, n), size=parts - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [n]))).tolist()


def dense_spectra(seed: int, smoke: bool) -> Batch:
    # 71 calls a batch, so call_tail_ms can be a p75. Costs group by kind
    # (bounds < sweep ~ psd at n=40 < n=120); twenty n=40 graphs put the median
    # and the p75 well inside the n=40 sweep and psd group (with ten, the median
    # falls at the group's lower edge and jumps between seeds). Edge density and
    # part counts are fixed so that every seed costs alike.
    sizes = (8, 10) if smoke else (40,) * 20 + (120,)
    multipartite_n = (8,) if smoke else (40,) * 2

    def batch(i):
        rng = np.random.default_rng([seed, i])
        groups = []
        for k, n in enumerate(sizes):
            g = gnp(rng, n, 0.5)
            groups.append(spectra_calls(f"gnp{k} n={n}", g, float(rng.choice(GRID))))
        for k, n in enumerate(multipartite_n):
            parts = composition(rng, n, k + 3)
            g = graphs.complete_multipartite(parts)
            groups.append(spectra_calls(f"multipartite{k} n={n}", g,
                                        float(rng.choice(GRID)), parts=parts))
        return shuffled(rng, groups)

    return batch


# ---------------------------------------------------------------- bounds

def rand_connected(rng, n: int, extra: int):
    """Random tree by attachment plus up to extra more edges."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    non_edges = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    take = min(extra, len(non_edges))
    for k in rng.choice(len(non_edges), size=take, replace=False):
        edges.add(non_edges[int(k)])
    return graphs.Graph(n, tuple(edges))


def bound_calls(tag: str, g) -> list[Call]:
    bip = is_bipartite(g.n, g.edges)

    def adjacency(_outs):
        return eigensolver.eigenvalues_only(matrices.assemble(g, "adjacency"))

    def adjacency_check(mu, _outs):
        gap = spectrum_gap(mu, reference_spectrum(g.n, g.edges, 0.0))
        return None if gap <= SPECTRUM_TOL else f"differs from numpy by {gap:.2e}"

    def cut_check(mc, _outs):
        if not g.m / 2 <= mc <= g.m or (mc == g.m) != bip:
            return f"maxcut {mc} impossible for m={g.m}, bipartite={bip}"
        return None

    def chromatic_check(chi, _outs):
        if not 2 <= chi <= g.max_degree() + 1 or (chi == 2) != bip:
            return f"chromatic number {chi} impossible, bipartite={bip}"
        return None

    calls = [
        Call(f"{tag} adjacency", adjacency, adjacency_check),
        Call(f"{tag} maxcut", lambda _outs: combinatorics.maxcut(g), cut_check),
        Call(f"{tag} chromatic", lambda _outs: combinatorics.chromatic_number(g),
             chromatic_check),
    ]
    for a in GRID:
        def report(outs, a=a):
            return bounds.bound_report(
                g, a, adjacency_spectrum=outs[f"{tag} adjacency"],
                maxcut_value=outs[f"{tag} maxcut"], chromatic=outs[f"{tag} chromatic"])
        calls.append(Call(f"{tag} bounds a={a}", report, no_violations))
    return calls


def bound_suite(seed: int, smoke: bool) -> Batch:
    # every batch holds the same number of graphs of each order, so batches
    # cost alike and only the edges come from the seed. 24 graphs per order
    # make 4368 calls, so the tail is a p99, and a batch, each call run twice,
    # of about 15 s.
    orders = range(3, 8) if smoke else range(2, 15)
    per_order = 1 if smoke else 24

    def batch(i):
        rng = np.random.default_rng([seed, i])
        return shuffled(rng, [bound_calls(f"n={n} #{k}",
                                          rand_connected(rng, n, int(rng.integers(0, 2 * n))))
                              for n in orders for k in range(per_order)])

    return batch


# workloads whose times are scaled by the host's speed (speed.py): their calls
# last well under a second. The scans' calls last seconds to tens of seconds,
# too long for samples between calls to follow the host.
SCALED = frozenset({"dense_spectra", "bound_suite"})
# workloads whose calls are timed twice, each counting with its faster time:
# their calls last milliseconds, so one stall of the host can double a call
# and move the tail. dense_spectra's calls last 50 ms to seconds.
BEST_OF_TWO = frozenset({"bound_suite"})

WORKLOADS = {
    "turan_scan": turan_scan,
    "boundary_ties": boundary_ties,
    "dense_spectra": dense_spectra,
    "bound_suite": bound_suite,
}
