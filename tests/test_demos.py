"""Every demo script, and README's library quick start, runs to completion from a fresh interpreter."""

import glob
import math
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_exits_zero(path):
    proc = subprocess.run([sys.executable, path], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"


def test_readme_quick_start_exits_zero():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README.md should hold one python block, the library quick start"
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert [math.isfinite(float(line)) for line in proc.stdout.splitlines()] == [True, True]
