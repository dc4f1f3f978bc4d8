"""Run the benchmark once per seed and summarise each metric over the seeds.

    python3 perfbench/spread.py --workloads turan_scan bound_suite --seeds 1 2 3 4 5 \
        [--trace 0|1] [--json perfbench/baseline.json]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median,
which is what the bounds in BENCHMARK.json are compared with. Runs are made
one after another, with the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"], args.trace) for s in args.seeds]
        summary[workload] = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:14} {name:34} median {stats['median']:.6g} {first['unit']:6}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.4f}{flag}", flush=True)
    if args.json:
        args.json.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace,
                                         "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
