"""The README's Python API sketch runs as written."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import python_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_sketch_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    script = tmp_path / "sketch.py"
    script.write_text(blocks[0], encoding="utf-8")
    done = subprocess.run([sys.executable, str(script)], env=python_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
