"""Repository checks: the orbit table stays behind orbits.py, and the
benchmark's layer pass still runs against the package.

benchmark/layers.py calls compile_mode_action.cache_clear, reads
CodeMap.terms, passes enumerate_orbits(cell_width=2) and, for the large
flavor, merges and summarizes with the large atlas; this runs it on the
smallest format and on 3x2x2x2 large so a change to that API shows up
here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_layer_pass(tmp_path, fmt, flavor):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "layers.py"), "--format", fmt,
         "--flavor", flavor, "--seed", "1", "--snapshot", str(tmp_path / "t.snap"),
         "--pass", "time"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_orbit_table_stays_in_orbits():
    # outside orbits.py, orbit ids are read through OrbitAtlas.orbit_id
    for name in ("ranks.py", "report.py", "cli.py"):
        assert "assignment" not in (ROOT / "src" / "f2orbits" / name).read_text(), name


def test_benchmark_layer_pass(tmp_path):
    out = run_layer_pass(tmp_path, "2x2x2", "small")
    assert out["problems"] == []
    assert out["cell_bytes"] == 2
    assert out["counts"]["orbits.orbits"] == 7


def test_benchmark_layer_pass_large(tmp_path):
    # the large flavor goes through merge_large_orbits(...).orbit_count and
    # summarize(..., flavor="large", large=...)
    out = run_layer_pass(tmp_path, "3x2x2x2", "large")
    assert out["problems"] == []
    assert out["counts"]["orbits.large_orbits"] == 212
