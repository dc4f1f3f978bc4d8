import errno
import json
import os
import pathlib
import resource
import signal
import subprocess
import sys

import numpy as np
import pytest

from alphaspec import (alpha_matrix, cli, complete_multipartite, eigenvalues_only,
                       enumerate_graphs, format_edge_list, is_clique_free)
from alphaspec.bounds import BoundRecord, BoundReport


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(f)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_spectrum_human(capsys, p4_file):
    rc, out, _ = run(capsys, "spectrum", p4_file, "--alpha", "0.5")
    assert rc == 0
    assert out.startswith("n=4 m=3 alpha=0.5")
    assert "eigenvalues:" in out


def test_spectrum_json(capsys, p4_file):
    rc, out, _ = run(capsys, "spectrum", p4_file, "--alpha", "0.25", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and len(doc["eigenvalues"]) == 4
    assert doc["residual_norm"] < 1e-12


def test_spectrum_fixed_kinds(capsys, p4_file):
    rc, out, _ = run(capsys, "spectrum", p4_file, "--alpha", "0", "--matrix", "laplacian")
    assert rc == 0 and "matrix=laplacian" in out


def test_spectrum_integral_formatting(capsys, tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    rc, out, _ = run(capsys, "spectrum", str(f), "--alpha", "1")
    assert rc == 0
    # the degree matrix is diagonal, so its eigenvalues print as integers
    assert "eigenvalues: 3, 3, 3, 3" in out


def test_bounds_ok(capsys, p4_file):
    rc, out, _ = run(capsys, "bounds", p4_file, "--alpha", "0.3")
    assert rc == 0
    assert "violations: 0" in out


def test_bounds_json(capsys, p4_file):
    rc, out, _ = run(capsys, "bounds", p4_file, "--alpha", "0.3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["violations"] == []


def test_bounds_violation_exit_code(capsys, p4_file, monkeypatch):
    fake = BoundReport("g", 0.3, (
        BoundRecord("made_up", "upper_on", "lambda_1", 1.0, 2.0, -1.0,
                    False, False, False, False, ""),))
    monkeypatch.setattr(cli, "bound_report", lambda *a, **k: fake)
    rc, out, _ = run(capsys, "bounds", p4_file, "--alpha", "0.3")
    assert rc == 2
    assert "VIOLATED" in out


def test_sweep_stdout(capsys, p4_file):
    rc, out, _ = run(capsys, "sweep", p4_file, "--grid", "0:1:0.5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,lambda_1,lambda_2,lambda_3,lambda_4"
    assert len(lines) == 4
    assert lines[1].startswith("0.0,")
    assert lines[3].startswith("1.0,")


def test_sweep_to_file(capsys, p4_file, tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, "sweep", p4_file, "--grid", "0:1:0.25",
                     "--out", str(out_path))
    assert rc == 0
    assert "wrote 5 rows" in out
    assert out_path.read_text().count("\n") == 6


def test_sweep_grid_errors(capsys, p4_file):
    rc, _, err = run(capsys, "sweep", p4_file, "--grid", "0:1")
    assert rc == 64 and "grid" in err
    rc, _, err = run(capsys, "sweep", p4_file, "--grid", "0:1:-0.5")
    assert rc == 64
    rc, _, err = run(capsys, "sweep", p4_file, "--grid", "1:0:0.5")
    assert rc == 64


@pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:0.5", "nan:1:0.5", "0:1:inf"])
def test_sweep_grid_rejects_non_finite(capsys, p4_file, grid):
    rc, _, err = run(capsys, "sweep", p4_file, "--grid", grid)
    assert rc == 64 and "finite" in err


@pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1e300:1e-300"])
def test_sweep_grid_over_capacity(capsys, p4_file, grid):
    # rejected before any point is built
    rc, _, err = run(capsys, "sweep", p4_file, "--grid", grid)
    assert rc == 65 and f"{cli.GRID_MAX_POINTS} points" in err
    step = 1.0 / (cli.GRID_MAX_POINTS - 1)
    assert len(cli._parse_grid(f"0:1:{step!r}")) == cli.GRID_MAX_POINTS


def test_closed_form_complete(capsys):
    rc, out, _ = run(capsys, "closed-form", "--family", "complete",
                     "--params", "5", "--alpha", "0.5")
    assert rc == 0
    assert "4 (x1)" in out and "1.5 (x4)" in out


def test_closed_form_multipartite_json(capsys):
    rc, out, _ = run(capsys, "closed-form", "--family", "multipartite",
                     "--params", "2", "2", "2", "--alpha", "0", "--json")
    assert rc == 0
    doc = json.loads(out)
    total = sum(e["multiplicity"] for e in doc["eigenvalues"])
    assert total == 6
    assert doc["eigenvalues"][0]["value"] == pytest.approx(4.0, abs=1e-9)


def test_closed_form_multipartite_next_to_pole(capsys):
    # alpha = 1 - 2**-53 puts every secular root within ulps of a pole
    a = 0.9999999999999999
    rc, out, err = run(capsys, "closed-form", "--family", "multipartite",
                       "--params", "1", "1", "--alpha", repr(a), "--json")
    assert rc == 0, err
    got = [e["value"] for e in json.loads(out)["eigenvalues"]
           for _ in range(e["multiplicity"])]
    dense = eigenvalues_only(alpha_matrix(complete_multipartite([1, 1]), a))
    assert np.allclose(got, dense, rtol=0.0, atol=1e-9)


def test_closed_form_param_errors(capsys):
    rc, _, err = run(capsys, "closed-form", "--family", "complete",
                     "--params", "3", "4", "--alpha", "0.5")
    assert rc == 64 and "one parameter" in err
    rc, _, err = run(capsys, "closed-form", "--family", "star",
                     "--params", "1", "--alpha", "0.5")
    assert rc == 64


def test_verify_turan_cli(capsys):
    rc, out, _ = run(capsys, "verify-turan", "--n", "5", "--r", "2",
                     "--alphas", "0.2,0.8")
    assert rc == 0
    assert "all checks passed" in out
    rc, out, _ = run(capsys, "verify-turan", "--n", "5", "--r", "2",
                     "--alphas", "0.2", "--json", "--workers", "3")
    doc = json.loads(out)
    assert doc["ok"] is True
    check = doc["checks"][0]
    assert 0 < check["solved"] < check["examined"]


def test_verify_turan_counterexample_exit(capsys, monkeypatch):
    import alphaspec.extremal as extremal
    monkeypatch.setattr(extremal, "turan_part_sizes", lambda n, r: (n - 1, 1))
    rc, out, _ = run(capsys, "verify-turan", "--n", "5", "--r", "2",
                     "--alphas", "0.1")
    assert rc == 2
    assert "COUNTEREXAMPLE" in out


def test_psd_threshold_cli(capsys, tmp_path):
    f = tmp_path / "k3.txt"
    f.write_text("3 3\n0 1\n0 2\n1 2\n")
    rc, out, _ = run(capsys, "psd-threshold", str(f))
    assert rc == 0
    assert abs(float(out.split(":")[1]) - 1 / 3) < 1e-8
    rc, out, _ = run(capsys, "psd-threshold", str(f), "--json")
    doc = json.loads(out)
    assert doc["threshold"] == pytest.approx(1 / 3, abs=1e-8)


def test_parser_built_once_and_reused(capsys, p4_file):
    # one parser serves every call: an option set or a usage error in one call
    # leaves nothing behind for the next
    calls = [("spectrum", p4_file, "--alpha", "0.5", "--matrix", "laplacian"),
             ("spectrum", p4_file, "--alpha", "0.5", "--bogus"),
             ("spectrum", p4_file, "--alpha", "0.5"),
             ("closed-form", "--family", "multipartite", "--params", "3", "2",
              "--alpha", "0.25", "--json")]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [rc for rc, _, _ in fresh] == [0, cli.EX_USAGE, 0, 0]
    reused = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert cli.build_parser() is cli.build_parser()


def test_enumerate_streams_blocks(capsys):
    rc, out, err = run(capsys, "enumerate", "--n", "3")
    assert rc == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 8
    assert "# 8 graphs" in err
    rc, out, err = run(capsys, "enumerate", "--n", "4", "--clique-free", "3")
    assert rc == 0
    assert "# 41 graphs" in err


def test_enumerate_clique_free_matches_filtered_enumeration(capsys):
    # the class table path prints exactly what filtering every labeled graph did
    cases = [(n, s) for n in range(6) for s in range(2, n + 3)] + [(6, 3)]
    for n, s in cases:
        rc, out, err = run(capsys, "enumerate", "--n", str(n), "--clique-free", str(s))
        want = [format_edge_list(g) + "\n" for g in
                enumerate_graphs(n, predicate=lambda g: is_clique_free(g, s))]
        assert rc == 0
        assert out == "".join(want)
        assert err == f"# {len(want)} graphs\n"
    for n in ("9", "-1"):
        refused = run(capsys, "enumerate", "--n", n, "--clique-free", "3")
        assert refused == run(capsys, "enumerate", "--n", n)
        assert refused[0] in (cli.EX_DATAERR, cli.EX_USAGE)


def test_enumerate_unfiltered_matches_enumerate_graphs(capsys):
    # unfiltered is the class without (n+1)-cliques, streamed from its table
    for n in range(7):
        rc, out, err = run(capsys, "enumerate", "--n", str(n))
        want = [format_edge_list(g) + "\n" for g in enumerate_graphs(n)]
        assert rc == 0
        assert out == "".join(want)
        assert err == f"# {len(want)} graphs\n"


def test_enumerate_capacity(capsys):
    rc, _, err = run(capsys, "enumerate", "--n", "20")
    assert rc == 65 and "limited" in err


def test_exit_codes(capsys, tmp_path, p4_file):
    rc, _, err = run(capsys, "spectrum", str(tmp_path / "absent.txt"),
                     "--alpha", "0.5")
    assert rc == 66
    rc, _, err = run(capsys, "spectrum", p4_file, "--alpha", "2.0")
    assert rc == 64
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    rc, _, err = run(capsys, "spectrum", str(bad), "--alpha", "0.5")
    assert rc == 65
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 64
    rc, _, _ = run(capsys, "spectrum", p4_file, "--alpha", "zebra")
    assert rc == 64


def test_directory_input_is_missing_input(capsys, tmp_path):
    rc, out, err = run(capsys, "spectrum", str(tmp_path), "--alpha", "0.5")
    assert rc == 66 and out == ""
    assert err == f"error: is a directory: {tmp_path}\n"


def test_non_utf8_input_is_data_error(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2 1\n0 1 # caf\xe9\n")
    rc, out, err = run(capsys, "spectrum", str(bad), "--alpha", "0.5")
    assert rc == 65 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1


def test_solver_error_exit_code_and_diagnostics(capsys, monkeypatch):
    import alphaspec.extremal as extremal
    from alphaspec import SolverError

    def fail(n, r, alpha, class_tag, **kw):
        raise SolverError("scan went wrong", n=n, r=r, mask=7)

    monkeypatch.setattr(extremal, "maximize_over_class", fail)
    rc, out, err = run(capsys, "verify-turan", "--n", "5", "--r", "2",
                       "--alphas", "0.1")
    assert rc == cli.EX_SOFTWARE == 70
    assert out == ""
    assert err == "error: scan went wrong (n=5 r=2 mask=7)\n"


def test_output_deterministic(capsys, p4_file):
    rc1, out1, _ = run(capsys, "sweep", p4_file, "--grid", "0:1:0.1")
    rc2, out2, _ = run(capsys, "sweep", p4_file, "--grid", "0:1:0.1")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_closed_form_prints_each_value_once(capsys):
    rc, out, _ = run(capsys, "closed-form", "--family", "complete",
                     "--params", "4", "--alpha", "1")
    assert rc == 0 and "eigenvalues: 3 (x4)" in out
    rc, out, _ = run(capsys, "closed-form", "--family", "multipartite",
                     "--params", "1", "6", "3", "--alpha", "0.9999999999999999")
    assert rc == 0 and out.startswith("eigenvalues: ")
    printed = []
    for piece in out[len("eigenvalues: "):].strip().split(", "):
        value, mult = piece.split(" (x")
        printed += [float(value)] * int(mult.rstrip(")"))
    dense = eigenvalues_only(alpha_matrix(complete_multipartite([1, 6, 3]),
                                          0.9999999999999999))
    assert len(printed) == 10
    assert np.max(np.abs(np.array(printed) - dense)) <= 1e-9


def test_verify_turan_json_counts_maximal_members(capsys):
    rc, out, _ = run(capsys, "verify-turan", "--n", "6", "--r", "3",
                     "--alphas", "0.3", "--json")
    assert rc == 0
    check = json.loads(out)["checks"][0]
    assert check["maximal"] == 162
    assert check["maximal"] <= check["solved"] + check["screened"]
    assert 0 < check["screened"] and check["solved"] < check["examined"]


def test_psd_threshold_check_failure_exit(capsys, tmp_path, monkeypatch):
    import alphaspec.eigensolver as eigensolver
    real = eigensolver.alpha_matrix
    monkeypatch.setattr(eigensolver, "alpha_matrix",
                        lambda g, a: real(g, a) + 1e-6 * np.eye(g.n))
    f = tmp_path / "c5.txt"
    f.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    rc, out, err = run(capsys, "psd-threshold", str(f))
    assert rc == cli.EX_SOFTWARE == 70
    assert out == ""
    assert err.startswith("error: smallest eigenvalue at the threshold")
    assert "threshold=0.447213595499" in err and "lam_min=" in err and "tol=1e-10" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("code, argv, reason", [
    pytest.param(66, lambda d: ["spectrum", f"{d}/absent.txt", "--alpha", "0.5"],
                 os.strerror(errno.ENOENT), id="missing"),
    pytest.param(66, lambda d: ["spectrum", f"{d}/p4.txt/g.txt", "--alpha", "0.5"],
                 os.strerror(errno.ENOTDIR), id="path-through-file"),
    pytest.param(66, lambda d: ["spectrum", f"{d}/{'g' * 300}", "--alpha", "0.5"],
                 os.strerror(errno.ENAMETOOLONG), id="name-too-long"),
    pytest.param(66, lambda d: ["sweep", f"{d}/p4.txt", "--grid", "0:1:0.5",
                                "--out", f"{d}/p4.txt/o.csv"],
                 os.strerror(errno.ENOTDIR), id="out-under-file"),
    # 10^7 vertices: the dense matrix needs 728 TiB
    pytest.param(65, lambda d: ["spectrum", f"{d}/huge.txt", "--alpha", "0.5"],
                 "allocate", id="spectrum-huge"),
    pytest.param(65, lambda d: ["bounds", f"{d}/huge.txt", "--alpha", "0.5"],
                 "allocate", id="bounds-huge"),
    pytest.param(65, lambda d: ["sweep", f"{d}/huge.txt", "--grid", "0:1:0.5"],
                 "allocate", id="sweep-huge"),
    # 10^11 and 10^19 vertices: numpy cannot even describe the matrix
    pytest.param(65, lambda d: ["spectrum", f"{d}/vast.txt", "--alpha", "0.5"],
                 "no dense matrix on n=100000000000", id="spectrum-vast"),
    pytest.param(65, lambda d: ["bounds", f"{d}/past-int64.txt", "--alpha", "0.5"],
                 "no dense matrix on n=10000000000000000000", id="bounds-past-int64"),
])
def test_failures_end_in_one_error_line(capsys, tmp_path, code, argv, reason):
    (tmp_path / "p4.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
    (tmp_path / "huge.txt").write_text("10000000 0\n")
    (tmp_path / "vast.txt").write_text("100000000000 0\n")
    (tmp_path / "past-int64.txt").write_text(f"{10**19} 0\n")
    rc, out, err = run(capsys, *argv(tmp_path))
    assert (rc, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason.lower() in err and "Traceback" not in err


def _cli_process(*argv, **kw):
    """python -m alphaspec.cli with argv, stdout and stderr piped."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-m", "alphaspec.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kw)


def _read_then_close(proc, nbytes):
    """Read nbytes of the child's stdout, close the pipe, and return the
    child's return code and stderr."""
    assert len(proc.stdout.read(nbytes)) == nbytes
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


def test_module_run_executes_the_command():
    ok = _cli_process("verify-turan", "--n", "4", "--r", "2", "--alphas", "0.3")
    out, _ = ok.communicate(timeout=120)
    assert ok.returncode == 0 and b"result: all checks passed" in out
    bad = _cli_process("verify-turan", "--n", "4", "--r", "9", "--alphas", "0.3")
    out, err = bad.communicate(timeout=120)
    assert bad.returncode == cli.EX_USAGE and out == b"" and err.startswith(b"error: ")


def test_closed_pipe_ends_quietly():
    assert _read_then_close(_cli_process("enumerate", "--n", "6"), 100) == (-signal.SIGPIPE, b"")


def test_enumerate_n8_streams_within_one_gib():
    # the K5-free graphs on 8 vertices are 258,081,845 masks, 1.9 GiB as int64
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = _cli_process("enumerate", "--n", "8", "--clique-free", "5", preexec_fn=limit)
    assert _read_then_close(proc, 4000) == (-signal.SIGPIPE, b"")
