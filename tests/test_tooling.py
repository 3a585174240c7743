"""The benchmark's layer pass still runs against the package.

benchmark/layers.py calls compile_mode_action.cache_clear, reads
CodeMap.terms and passes enumerate_orbits(cell_width=2); this runs it
once on the smallest format so a change to that API shows up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_layer_pass(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "layers.py"), "--format", "2x2x2",
         "--flavor", "small", "--seed", "1", "--snapshot", str(tmp_path / "t.snap"),
         "--pass", "time"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["problems"] == []
    assert out["cell_bytes"] == 2
    assert out["counts"]["orbits.orbits"] == 7
