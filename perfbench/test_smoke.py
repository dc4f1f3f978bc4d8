"""Smoke tests of the benchmark at its smoke size (n=5 scans, a handful of graphs).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for well under a minute, traced and untraced; the tests
check the result line against BENCHMARK.json and the refusal to run without
the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("# env ") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_expected_tie_sets_at_full_size():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import multipartite_masks

    for (n, r), labeled in (((7, 2), 63), ((6, 3), 90)):
        masks = multipartite_masks(n, r)
        assert len(masks) == labeled
        assert len(set(masks.values())) == 3
