"""Closed-loop benchmark of alphaspec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size smoke]

Run from the root of a source checkout; the package is imported from ./src.
One process, one caller: the workload's batch of calls is repeated, each batch
after the last has finished, until S seconds have passed (always at least one
batch). Every output is checked outside the timed calls. The times of the
workloads in workloads.SCALED are scaled by the host's speed (speed.py); on
those in workloads.BEST_OF_TWO every call is timed twice and counts with its
faster time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 each group of calls runs untraced and then traced, the
metrics are the per-layer ones, and the spans are written to perfbench/out/.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# call_tail_ms reports the highest of these percentiles that leaves at least
# ten calls of one batch beyond it; with fewer calls it reports the maximum
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
clock = time.perf_counter


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds at the values its dynamic rule
    converges to (32 MiB and 64 MiB). Left dynamic, they depend on the order of
    earlier large allocations, and peak RSS moved by a tenth between runs of
    identical work."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default (not glibc)"
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if libc.mallopt(m_mmap_threshold, 32 << 20) and libc.mallopt(m_trim_threshold, 64 << 20):
        return "mmap_threshold=32MiB trim_threshold=64MiB"
    return "default (mallopt refused)"


def pin_environment() -> dict:
    """One BLAS/OpenMP thread and no worker pool, for this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ALPHASPEC_WORKERS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(args, threads: dict, malloc: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": threads, "workers": 1, "malloc": malloc, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def import_s(cmd) -> float:
    """Wall time of a fresh interpreter that imports the package, run on this
    process's CPU, where the host's speed is sampled. The exit is waited for
    without polling (subprocess polls when given a timeout, which rounds the
    time up to its next step of up to 50 ms); a timer kills a hung child."""
    cpu = current_cpu()
    t0 = clock()
    child = subprocess.Popen(cmd, cwd=ROOT)
    killer = threading.Timer(120, child.kill)
    killer.start()
    try:
        try:
            os.sched_setaffinity(child.pid, {cpu})
        except ProcessLookupError:  # the child has already exited
            pass
        code = child.wait()
    finally:
        killer.cancel()
    elapsed = clock() - t0
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {code}")
    return elapsed


def setup(make, args, speed):
    """Median over SETUP_REPEATS of: a fresh interpreter importing the package,
    plus making the workload's expected answers and the inputs of its first
    batch in this process, each round scaled by the host's speed sampled just
    before and after it. One untimed round first fills the bytecode cache.
    Returns the batch maker, the median and the unscaled median."""
    cmd = [sys.executable, "-c", "import alphaspec.cli"]
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        before = speed.sample()
        t = import_s(cmd)
        t0 = clock()
        batch = make(args.seed, args.size == "smoke")
        batch(0)
        t += clock() - t0
        if k:
            raw.append(t)
            scaled.append(t * speed.scale(before, speed.sample()))
    return batch, statistics.median(scaled), statistics.median(raw)


def run_group(group, tracer):
    """Time each call of a group; check the outputs, outside the timed calls,
    and drop them, so that peak RSS is the program's and not the batch's
    retained outputs. Returns the call times and the failed checks."""
    times, outs, errors = [], {}, {}
    if tracer is not None:
        tracer.install()
    try:
        for call in group:
            c0 = clock()
            try:
                outs[call.key] = call.fn(outs)
            except Exception as exc:  # counted in failed; the run goes on
                errors[call.key] = exc
            times.append(clock() - c0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, check_group(group, outs, errors)


def check_group(calls, outs, errors) -> list[str]:
    failures = []
    for call in calls:
        if call.key in errors:
            exc = errors[call.key]
            failures.append(f"{call.key}: raised {type(exc).__name__}: {exc}")
            continue
        try:
            reason = call.check(outs[call.key], outs)
        except Exception as exc:  # a malformed output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{call.key}: {reason}")
    return failures


class Tally:
    """Batch times (summed call times), call times and failures of a run;
    times scaled by the host speed, batch times also unscaled."""

    def __init__(self):
        self.walls, self.raw_walls, self.call_times, self.failures = [], [], [], []
        self.attempted = 0
        self.per_batch = 0
        self._batch = [0.0, 0.0, 0]  # scaled, raw, calls of the open batch

    def add(self, scaled, raw, failures, attempted):
        self._batch[0] += sum(scaled)
        self._batch[1] += sum(raw)
        self._batch[2] += len(scaled)
        self.call_times.extend(scaled)
        self.attempted += attempted
        self.failures.extend(failures)

    def end_batch(self):
        wall, raw, calls = self._batch
        self.walls.append(wall)
        self.raw_walls.append(raw)
        self.per_batch = self.per_batch or calls
        self._batch = [0.0, 0.0, 0]


def run_batch(runs, speed):
    """Run (group, tracer or None) pairs in order; return for each its call
    times scaled, its call times and its failed checks.

    The host speed is sampled before the first group, after the first group
    that ends EVERY_S or more of calls since the last sample, and after the
    last group; the calls between two samples are scaled by their mean."""
    results, pending = [], []  # pending: indices of results since the last sample
    before, since = speed.sample(), 0.0
    for k, (group, tracer) in enumerate(runs):
        times, failures = run_group(group, tracer)
        results.append((times, times, failures))
        pending.append(k)
        since += sum(times)
        if since < speed.EVERY_S and k < len(runs) - 1:
            continue
        after = speed.sample()
        factor = speed.scale(before, after)
        for j in pending:
            times = results[j][1]
            results[j] = ([t * factor for t in times], times, results[j][2])
            if runs[j][1] is not None:
                runs[j][1].scale_new(factor)
        pending, before, since = [], after, 0.0
    return results


def tail(call_times, per_batch):
    for q in TAIL_PERCENTILES:
        if per_batch * (1.0 - q / 100.0) >= 10.0:
            return f"p{q:g}", statistics.quantiles(call_times, n=1000,
                                                   method="inclusive")[round(q * 10) - 1]
    return "max", max(call_times)


def measure(batch, seconds: float, speed, tracer=None, best_of_two=False):
    """Run batches until time is up, always at least one. Returns the
    untraced and the traced tally.

    With a tracer, each group runs untraced and then traced on a twin built
    separately, so that no result cached on a graph carries over. With
    best_of_two, each group runs twice in the same way, both untraced, and
    each call counts with the faster of its two times: one host stall inside
    a short call then does not count as the program's time."""
    plain, traced = Tally(), Tally()
    deadline = clock() + seconds
    i = 0
    while True:
        if tracer is None and not best_of_two:
            for times, raw, failures in run_batch([(g, None) for g in batch(i)], speed):
                plain.add(times, raw, failures, len(times))
        else:
            twins = list(zip(batch(i), batch(i)))
            results = run_batch([run for g, twin in twins
                                 for run in ((g, None), (twin, tracer))], speed)
            for a, b in zip(results[::2], results[1::2]):
                if tracer is not None:
                    plain.add(*a, len(a[0]))
                    traced.add(*b, len(b[0]))
                else:
                    plain.add(list(map(min, a[0], b[0])), list(map(min, a[1], b[1])),
                              a[2] + b[2], 2 * len(a[0]))
            traced.end_batch()
        plain.end_batch()
        i += 1
        if clock() >= deadline:
            return plain, traced


def main(argv=None) -> int:
    malloc = pin_malloc()
    threads = pin_environment()
    if not (SRC / "alphaspec" / "__init__.py").is_file():
        print(f"error: no alphaspec sources under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from speed import Speed
    from workloads import BEST_OF_TWO, SCALED, WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    env = environment(args, threads, malloc)
    print("# env " + json.dumps(env, sort_keys=True))
    speed = Speed(args.workload in SCALED)
    # set-up rounds last a fraction of a second, so every workload's are scaled
    batch, setup_s, raw_setup_s = setup(WORKLOADS[args.workload], args, Speed())

    if args.trace:
        tracer = tracing.Tracer()
        plain, tally = measure(batch, args.seconds, speed, tracer)
        metrics = tracing.layer_metrics(tracer.spans, tracer.factors, len(tally.walls))
        metrics["trace.run_s"] = (statistics.median(tally.walls), "s")
        metrics["trace.overhead_ratio"] = (sum(tally.walls) / sum(plain.walls), "ratio")
        failures = plain.failures + tally.failures
        attempted = plain.attempted + tally.attempted
    else:
        tally, _ = measure(batch, args.seconds, speed,
                           best_of_two=args.workload in BEST_OF_TWO)
        label, tail_s = tail(tally.call_times, tally.per_batch)
        failures, attempted = tally.failures, tally.attempted
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(tally.walls), "s"),
            "call_p50_ms": (statistics.median(tally.call_times) * 1e3, "ms"),
            "call_tail_ms": (tail_s * 1e3, "ms"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB"),
        }
        print(f"# call_tail_ms is {label} of {len(tally.call_times)} calls "
              f"({tally.per_batch} per batch, {len(tally.walls)} batches)")

    print("# batch seconds: " + " ".join(f"{w:.4f}" for w in tally.walls))
    print(f"# unscaled setup_s: {raw_setup_s!r}")
    if speed.enabled:
        print("# unscaled batch seconds: "
              + " ".join(f"{w:.4f}" for w in tally.raw_walls))
        print(f"# host speed: kernel median {statistics.median(speed.samples) * 1e3:.4f} ms "
              f"over {len(speed.samples)} samples, nominal {speed.NOMINAL_S * 1e3:g} ms")
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"# failed_ratio = {len(failures) / attempted!r} "
          f"({len(failures)} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(out, {"env": env, "metrics": metrics})
        print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
