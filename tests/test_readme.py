"""The README's library quick start must run as printed, and its command-line
transcripts must match what the program prints."""

import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from alphaspec.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PLAIN_BLOCKS = [body for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", README,
                                                  flags=re.S | re.M) if not info]
TRANSCRIPTS = [b for b in PLAIN_BLOCKS if b.startswith("$ alphaspec ")]
EDGE_LIST = next(b for b in PLAIN_BLOCKS if re.fullmatch(r"(\d+ \d+\n)+", b))
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


def _same_line(want: str, got: str) -> bool:
    """Text between numbers must match exactly; numbers agree to 1e-9
    relative, or 1e-12 absolute for roundoff-sized values such as a zero
    slack, since LAPACK's last digits vary by build."""
    w, g = NUMBER.split(want.rstrip()), NUMBER.split(got.rstrip())
    # split with one capture group alternates text, number, text, ...
    return len(w) == len(g) and all(
        a == b if i % 2 == 0
        else math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
        for i, (a, b) in enumerate(zip(w, g)))


def _transcript_matches(want: list[str], got: list[str]) -> bool:
    """A "..." line in the transcript stands for any number of output lines."""
    marks = [line.strip() for line in want]
    if "..." not in marks:
        return len(want) == len(got) and all(map(_same_line, want, got))
    cut = marks.index("...")
    head, tail = want[:cut], want[cut + 1:]
    return (len(got) >= len(head) + len(tail)
            and all(map(_same_line, head, got))
            and all(map(_same_line, tail, got[len(got) - len(tail):])))


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 7
    assert EDGE_LIST.startswith("5 5\n")


@pytest.mark.parametrize("block", TRANSCRIPTS, ids=lambda b: b.splitlines()[0][2:])
def test_readme_cli_transcript(block, tmp_path, monkeypatch, capsys):
    command, *want = block.splitlines()
    (tmp_path / "c5.txt").write_text(EDGE_LIST, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[2:]) == 0
    out = capsys.readouterr()
    got = out.out.splitlines() + out.err.splitlines()
    assert _transcript_matches(want, got), "\n".join(got)
