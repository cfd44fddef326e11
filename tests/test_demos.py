"""Every script under demos/, and the README's library example, runs to
completion against the library in src/."""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
README = os.path.join(ROOT, "README.md")


def test_demos_found():
    assert len(DEMOS) == 5


def _program(path: str) -> list:
    """Arguments that run ``path``: a demo script, or the README's library example."""
    if path != README:
        return [path]
    with open(path, encoding="utf-8") as fh:
        (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", fh.read(), re.S)
    return ["-c", example]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the files a demo writes (through tempfile) inside tmp_path
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, *_program(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
