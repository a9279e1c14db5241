"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys

import fracpicard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_python_blocks_run(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"^```python\n(.*?)^```", handle.read(), flags=re.M | re.S)
    assert blocks
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracpicard.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("True ")
