"""The README's library quick start must run as printed."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
