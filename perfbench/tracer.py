"""Span tracing of alphaspec from outside the package.

The tracer replaces chosen functions of the package with wrappers that record
a span (name, start, end, parent span, info, error) for each call.
A function is replaced under every module name that binds it, so a call that
crosses a module boundary (``alphaspec.extremal.eigvalsh_batch``) and a call
inside a module (``psd_threshold`` -> ``eigenvalues_only``) are both seen.
Nothing under ``src/`` is changed; ``uninstall`` puts the originals back.

Spans are kept in memory and written out once, after timing has ended. Each
span also gets the host-speed factor of the benchmark call it ran in (see
speed.py), and the per-layer times are scaled by it like the end-to-end ones.
"""

import functools
import gzip
import json
import statistics
import sys
import time

# span name -> (defining module, attribute, info extractor or None).
# The extractor runs after the span has closed and returns one small number
# (or tuple) that the per-layer metrics aggregate.
TARGETS = {
    "cli.main": ("alphaspec.cli", "main", None),
    "extremal.verify_turan": ("alphaspec.extremal", "verify_turan", None),
    "extremal.maximize_over_class": (
        "alphaspec.extremal", "maximize_over_class",
        lambda args, kw, out: (len(out.maximizers), len(out.maximizer_reps))),
    "extremal.class_member_masks": (
        "alphaspec.extremal", "class_member_masks", lambda args, kw, out: int(out.size)),
    "extremal._dedupe_isomorphic": ("alphaspec.extremal", "_dedupe_isomorphic", None),
    "extremal._membership_check": ("alphaspec.extremal", "_membership_check", None),
    "eigensolver.eigvalsh_batch": (
        "alphaspec.eigensolver", "eigvalsh_batch", lambda args, kw, out: int(out.shape[0])),
    "eigensolver.decompose": (
        "alphaspec.eigensolver", "decompose", lambda args, kw, out: int(out[0].size)),
    "eigensolver.eigenvalues_only": (
        "alphaspec.eigensolver", "eigenvalues_only", lambda args, kw, out: int(out.size)),
    "eigensolver.full_spectrum": ("alphaspec.eigensolver", "full_spectrum", None),
    "eigensolver.alpha_sweep": ("alphaspec.eigensolver", "alpha_sweep", None),
    "eigensolver.psd_threshold": ("alphaspec.eigensolver", "psd_threshold", None),
    "matrices.assemble": ("alphaspec.matrices", "assemble", None),
    "combinatorics.are_isomorphic": ("alphaspec.combinatorics", "are_isomorphic", None),
    "combinatorics.maxcut": ("alphaspec.combinatorics", "maxcut", None),
    "combinatorics.chromatic_number": ("alphaspec.combinatorics", "chromatic_number", None),
    "combinatorics.diameter": ("alphaspec.combinatorics", "diameter", None),
    "closed_forms.multipartite_radius": (
        "alphaspec.closed_forms", "multipartite_radius", None),
    "closed_forms.spectrum_complete_multipartite": (
        "alphaspec.closed_forms", "spectrum_complete_multipartite", None),
    "bounds.bound_report": (
        "alphaspec.bounds", "bound_report",
        lambda args, kw, out: (len(out.records), sum(r.skipped for r in out.records))),
}

# classmethods are patched on their class, which every caller goes through
CLASS_TARGETS = {
    "graphs.Graph.from_edge_mask": ("alphaspec.graphs", "Graph", "from_edge_mask"),
}

SOLVE_KERNELS = ("eigensolver.decompose", "eigensolver.eigenvalues_only")

# span fields
NAME, START, END, PARENT, INFO, ERROR = range(6)


class Tracer:
    """Records spans around the package functions named in TARGETS."""

    def __init__(self):
        self.spans: list[list] = []
        self.factors: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "alphaspec" or k.startswith("alphaspec.")) and m is not None]
        for name, (modname, attr, info) in TARGETS.items():
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)
        for name, (modname, clsname, attr) in CLASS_TARGETS.items():
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__.get(attr)
            if not isinstance(original, classmethod):
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(name, original.__func__, None)))

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    def scale_new(self, factor: float) -> None:
        """Give every span recorded since the last call this speed factor."""
        self.factors += [factor] * (len(self.spans) - len(self.factors))

    def write(self, path, header: dict) -> None:
        """Write the header and every span as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"header": header,
               "fields": ["name", "start", "end", "parent", "info", "error"],
               "spans": self.spans, "factors": self.factors}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[list], durations: list[float]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    One caller thread means children of a span never overlap, so the covered
    part is the sum of the children's durations.
    """
    own = list(durations)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            own[s[PARENT]] -= d
    return own


def _outermost(spans: list[list], names) -> list[int]:
    """Indices of spans named in names that have no ancestor named in names."""
    names = set(names)
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):  # parents precede children
        p = s[PARENT]
        covered = p >= 0 and (inside[p] or spans[p][NAME] in names)
        inside[i] = covered
        if s[NAME] in names and not covered:
            out.append(i)
    return out


def layer_metrics(spans: list[list], factors: list[float],
                  batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as totals per traced batch, from one run's spans
    and their speed factors."""
    durations = [(s[END] - s[START]) * f for s, f in zip(spans, factors)]
    own = self_times(spans, durations)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def incl(names):
        return sum(durations[i] for i in _outermost(spans, names))

    def per(x):
        return x / batches

    def info_sum(name, k=None):
        vals = [spans[i][INFO] for i in idx(name) if spans[i][INFO] is not None]
        return sum(v if k is None else v[k] for v in vals)

    def median_ms(sizes):
        ds = [durations[i] * 1e3
              for n in SOLVE_KERNELS for i in idx(n)
              if spans[i][INFO] is not None and spans[i][INFO] in sizes]
        return statistics.median(ds) if ds else 0.0

    members = info_sum("extremal.class_member_masks")
    solved = info_sum("eigensolver.eigvalsh_batch")
    ties = info_sum("extremal.maximize_over_class", 0)
    batch_s = incl(["eigensolver.eigvalsh_batch"])
    extremal_self = sum(own[i] for i, s in enumerate(spans)
                        if s[NAME].startswith("extremal.")
                        and s[NAME] != "extremal.class_member_masks")

    # solves made while a psd_threshold span is open
    psd = idx("eigensolver.psd_threshold")
    under_psd = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        under_psd[i] = p >= 0 and (under_psd[p] or spans[p][NAME] == "eigensolver.psd_threshold")
    psd_solves = sum(1 for n in SOLVE_KERNELS for i in idx(n) if under_psd[i])

    # errors raised inside the eigensolver layer, counted where they started
    errored_child = [False] * len(spans)
    for s in spans:
        if s[ERROR] and s[PARENT] >= 0:
            errored_child[s[PARENT]] = True
    solver_errors = sum(1 for i, s in enumerate(spans)
                        if s[ERROR] and s[NAME].startswith("eigensolver.")
                        and not errored_child[i])

    closed = [n for n in by_name if n.startswith("closed_forms.")]
    solves = sum(len(idx(n)) for n in SOLVE_KERNELS)
    iso = idx("combinatorics.are_isomorphic")
    return {
        "extremal.class_members": (per(members), "count"),
        "extremal.mask_filter_s": (per(incl(["extremal.class_member_masks"])), "s"),
        "extremal.self_s": (per(extremal_self), "s"),
        "extremal.matrices_solved": (per(solved), "count"),
        "extremal.solve_ratio": (solved / members if members else 0.0, "ratio"),
        "extremal.tie_yield": (ties / solved if solved else 0.0, "ratio"),
        "extremal.ties": (per(ties), "count"),
        "extremal.tie_classes": (per(info_sum("extremal.maximize_over_class", 1)), "count"),
        "extremal.dedupe_s": (per(incl(["extremal._dedupe_isomorphic"])), "s"),
        "extremal.membership_s": (per(incl(["extremal._membership_check"])), "s"),
        "extremal.membership_calls": (per(len(idx("extremal._membership_check"))), "count"),
        "combinatorics.iso_calls": (per(len(iso)), "count"),
        "combinatorics.iso_s": (per(incl(["combinatorics.are_isomorphic"])), "s"),
        "graphs.from_edge_mask_s": (per(incl(["graphs.Graph.from_edge_mask"])), "s"),
        "eigensolver.batch_calls": (per(len(idx("eigensolver.eigvalsh_batch"))), "count"),
        "eigensolver.batch_s": (per(batch_s), "s"),
        "eigensolver.batch_us_per_matrix": (batch_s / solved * 1e6 if solved else 0.0, "us"),
        "eigensolver.solves": (per(solves), "count"),
        "eigensolver.solve_s": (per(incl(SOLVE_KERNELS)), "s"),
        "eigensolver.solve_ms_small": (median_ms(range(1, 17)), "ms"),
        "eigensolver.solve_ms_n40": (median_ms((40,)), "ms"),
        "eigensolver.solve_ms_n120": (median_ms((120,)), "ms"),
        "eigensolver.psd_s": (per(incl(["eigensolver.psd_threshold"])), "s"),
        "eigensolver.psd_solves_per_call": (psd_solves / len(psd) if psd else 0.0, "count"),
        "eigensolver.solver_errors": (per(solver_errors), "count"),
        "bounds.report_calls": (per(len(idx("bounds.bound_report"))), "count"),
        "bounds.self_s": (per(sum(own[i] for i in idx("bounds.bound_report"))), "s"),
        "bounds.records": (per(info_sum("bounds.bound_report", 0)), "count"),
        "bounds.skipped_records": (per(info_sum("bounds.bound_report", 1)), "count"),
        "combinatorics.maxcut_s": (per(incl(["combinatorics.maxcut"])), "s"),
        "combinatorics.chromatic_s": (per(incl(["combinatorics.chromatic_number"])), "s"),
        "combinatorics.diameter_s": (per(incl(["combinatorics.diameter"])), "s"),
        "matrices.assemble_calls": (per(len(idx("matrices.assemble"))), "count"),
        "matrices.assemble_s": (per(incl(["matrices.assemble"])), "s"),
        "closed_forms.calls": (per(len(_outermost(spans, closed))), "count"),
        "closed_forms.s": (per(incl(closed)), "s"),
        "cli.self_s": (per(sum(own[i] for i in idx("cli.main"))), "s"),
    }
