"""Benchmark of the f2orbits command line, end to end and per layer.

    python3 benchmark/run.py --workload quad-large --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the program under test is the
checkout's src/ tree, started with PYTHONPATH pointing at it.  The load
is one client in a closed loop: one child process at a time, each
started when the previous one has exited, numpy single-threaded.

--trace 0 does the workload's set-up, then runs `f2orbits classify`
back to back, starting another invocation only while the median one
so far would end within --seconds seconds (one at least), and reports
the end-to-end metrics: median wall time and peak RSS of one invocation
(each child's own wait4 rusage), codes classified per second, the
set-up's time and peak RSS, and ok_rate, the share of classify
invocations that passed.  ok_rate is 1 - fail_rate, reported this way
round because an end-to-end metric must never read 0.  The set-up of
cube3-reuse is the cold `classify --snapshot` that writes the snapshot
its timed runs load; the other workloads set up with start-up probes
(`f2orbits --help`: interpreter, imports, parser), reported as a median.

--trace 1 reports the per-layer metrics instead.  They come from
fresh-interpreter import probes, a timed in-process pass over the
layers (benchmark/layers.py), a separate tracemalloc pass for the
allocation figures, and one untraced invocation: trace.overhead_s is
the import probe plus the spans on that invocation's path, minus its
wall time, and fail_rate is its failure share.  --seconds does not
apply; the pass is one classification.

Every classify invocation's stdout is parsed and compared row by row
with the reference tables through report.load_reference, and must be
byte-identical to every other invocation of the workload, in this run
and in earlier runs of the same sources in this checkout
(.bench_work/state.json).  The exact counts of the traced run are held
to the same rule.  The classify input is a tensor format, so the seed
only draws the array the apply_array probe maps.

The last line of stdout is the result object; the line before it
records the machine, the versions and the seed.  A checkout without
src/f2orbits exits 1 without a result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_classify_text, validate_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

BUDGET_S = 170        # every run must end within 180 s
HELP_PROBES = 15      # start-up probes per set-up, reported as a median
IMPORT_PROBES = 5
MB = 1 << 20


@dataclass(frozen=True)
class Workload:
    format: str
    flavor: str
    snapshot: bool    # set-up writes a snapshot that every timed run loads

    @property
    def code_bound(self) -> int:
        return 2 ** math.prod(int(d) for d in self.format.split("x"))


# Why each workload exists is recorded beside its name in BENCHMARK.json.
# A 3x3x3 classify without a snapshot takes about 20 s, so a run would
# hold one sample and the host's slow phases spread those samples past
# the wall_s bound; it is timed instead as the set-up of cube3-reuse.
WORKLOADS = {
    "cube3-reuse": Workload("3x3x3", "large", snapshot=True),
    "quad-large": Workload("3x2x2x2", "large", snapshot=False),
}

CLI = [sys.executable, "-m", "f2orbits.cli"]
HELP_ARGV = CLI + ["--help"]
IMPORT_ARGV = [sys.executable, "-c", "import f2orbits.cli"]

# per-layer spans that sum to one classify invocation's own work
PATH_COLD = ("group.compile", "orbits.enumerate")
PATH_REUSE = ("orbits.load",)
PATH_COMMON = ("ranks.propagate", "orbits.merge", "report.summarize",
               "ranks.distribution", "report.emit")


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("F2TO_MEM_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts children one at a time and keeps the tally: classify
    invocations attempted and failed, and every problem found."""

    def __init__(self, workload: Workload, expected_sha: str | None):
        self.workload = workload
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stdout_sha = expected_sha
        from f2orbits.report import load_reference  # src joins sys.path after preflight
        self.ref = load_reference(workload.format, workload.flavor)

    def run(self, argv) -> Child:
        """Run argv to completion; wall time from spawn to exit, peak
        RSS from the child's own rusage.  Killed at the run deadline."""
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode,
                     out_path.read_bytes(), err_path.read_text(errors="replace"))

    def probe(self, argv, prefix=b"") -> Child:
        child = self.run(argv)
        if child.exit_code != 0 or not child.stdout.startswith(prefix):
            self.problems.append(f"{' '.join(argv[1:])}: exit {child.exit_code}, "
                                 f"{child.stderr.strip()[-300:]}")
        return child

    def classify(self, snapshot: Path | None) -> Child:
        """One invocation: failed on a nonzero exit, on stdout that does
        not match the reference, or on stdout that differs by a byte
        from an earlier invocation of the workload."""
        wl = self.workload
        argv = CLI + ["classify", "--format", wl.format, "--flavor", wl.flavor]
        if snapshot is not None:
            argv += ["--snapshot", str(snapshot)]
        self.attempted += 1
        child = self.run(argv)
        if child.exit_code != 0:
            problems = [f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"]
        else:
            sha = hashlib.sha256(child.stdout).hexdigest()
            problems = check_classify_text(child.stdout.decode(errors="replace"), self.ref)
            if self.stdout_sha is None:
                self.stdout_sha = sha
            elif sha != self.stdout_sha:
                problems.append("stdout differs from an earlier invocation of this workload")
        if problems:
            self.failed += 1
            self.problems.append("classify: " + "; ".join(problems[:5]))
        return child

    def json_child(self, argv) -> dict | None:
        """Run argv and parse the JSON object on its last stdout line."""
        child = self.probe(argv)
        if child.exit_code != 0:
            return None
        try:
            return json.loads(child.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            self.problems.append(f"{' '.join(argv[1:])}: no JSON result line")
            return None


def measure_end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    wl = runner.workload
    snapshot = WORK / "reuse.snap" if wl.snapshot else None
    if snapshot is not None:
        snapshot.unlink(missing_ok=True)
        setup = [runner.classify(snapshot)]
    else:
        setup = [runner.probe(HELP_ARGV, b"usage: f2orbits") for _ in range(HELP_PROBES)]
    timed = []
    start = time.perf_counter()
    while True:
        timed.append(runner.classify(snapshot))
        now = time.perf_counter()
        if (now - start + statistics.median(c.wall_s for c in timed) > seconds
                or now + max(c.wall_s for c in timed) > runner.deadline):
            break
    if snapshot is not None:
        snapshot.unlink(missing_ok=True)
    wall = statistics.median(c.wall_s for c in timed)
    return {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in timed), "MB"),
        "codes_per_s": (wl.code_bound / wall, "codes/s"),
        "setup_s": (statistics.median(c.wall_s for c in setup), "s"),
        "setup_peak_rss_mb": (statistics.median(c.rss_mb for c in setup), "MB"),
        "ok_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }, {"setup_wall_s": [c.wall_s for c in setup], "timed_wall_s": [c.wall_s for c in timed],
        "timed_rss_mb": [c.rss_mb for c in timed]}


def measure_layers(runner: Runner, seed: int, known_counts: dict | None):
    wl = runner.workload
    snapshot = WORK / "trace.snap"
    imports = [runner.probe(IMPORT_ARGV) for _ in range(IMPORT_PROBES)]
    argv = [sys.executable, str(HERE / "layers.py"), "--format", wl.format,
            "--flavor", wl.flavor, "--seed", str(seed), "--snapshot", str(snapshot),
            "--pass"]
    timing = runner.json_child(argv + ["time"])
    memory = runner.json_child(argv + ["memory"])
    if timing is None or memory is None:
        snapshot.unlink(missing_ok=True)
        return None, None
    if timing["problems"]:
        runner.problems.append("layer pass: " + "; ".join(timing["problems"][:5]))
    cli = runner.classify(snapshot if wl.snapshot else None)
    snapshot.unlink(missing_ok=True)
    if runner.stdout_sha != timing["text_sha256"]:
        runner.problems.append("the layer pass emitted other text than the CLI")

    counts = timing["counts"]
    drift = {k: (v, counts[k]) for k, v in memory["counts"].items() if counts[k] != v}
    if known_counts is not None:
        drift.update({k: (v, counts.get(k)) for k, v in known_counts.items()
                      if counts.get(k) != v})
    if drift:
        runner.problems.append(f"exact counts changed between runs of the same code: {drift}")

    def span_s(name):
        return statistics.median(s["end"] - s["start"] for s in timing["spans"]
                                 if s["name"] == name)

    import_s = statistics.median(c.wall_s for c in imports)
    path = (PATH_REUSE if wl.snapshot else PATH_COLD) + PATH_COMMON
    traced_s = import_s + sum(span_s(n) for n in path)
    alloc = memory["alloc_mb"]
    enumerate_s = span_s("orbits.enumerate")
    metrics = {
        "cli.import_s": (import_s, "s"),
        "group.compile_s": (span_s("group.compile"), "s"),
        "group.generators": (counts["group.generators"], "count"),
        "group.terms": (counts["group.terms"], "count"),
        "group.apply_mcodes_per_s": (timing["apply_codes"] / span_s("group.apply") / 1e6,
                                     "Mcodes/s"),
        "orbits.enumerate_s": (enumerate_s, "s"),
        "orbits.enumerate_mcodes_per_s": ((wl.code_bound - 1) / enumerate_s / 1e6,
                                          "Mcodes/s"),
        "orbits.gathers": (counts["orbits.gathers"], "count"),
        "orbits.gather_mb": (counts["orbits.gathers"] * timing["cell_bytes"] / MB, "MB"),
        "orbits.enumerate_alloc_mb": (alloc["orbits.enumerate"], "MB"),
        "orbits.orbits": (counts["orbits.orbits"], "count"),
        "orbits.large_orbits": (counts["orbits.large_orbits"], "count"),
        "orbits.merge_s": (span_s("orbits.merge"), "s"),
        "orbits.merge_transposes": (counts["orbits.merge_transposes"], "count"),
        "orbits.save_s": (span_s("orbits.save"), "s"),
        "orbits.save_alloc_mb": (alloc["orbits.save"], "MB"),
        "orbits.load_s": (span_s("orbits.load"), "s"),
        "orbits.load_alloc_mb": (alloc["orbits.load"], "MB"),
        "orbits.snapshot_mb": (timing["snapshot_bytes"] / MB, "MB"),
        "ranks.propagate_s": (span_s("ranks.propagate"), "s"),
        "ranks.alloc_mb": (alloc["ranks.propagate"], "MB"),
        "ranks.max_rank": (counts["ranks.max_rank"], "count"),
        "ranks.distribution_s": (span_s("ranks.distribution"), "s"),
        "report.summarize_s": (span_s("report.summarize"), "s"),
        "report.emit_s": (span_s("report.emit"), "s"),
        "report.verify_s": (span_s("report.verify"), "s"),
        "report.rows": (counts["report.rows"], "count"),
        "trace.overhead_s": (traced_s - cli.wall_s, "s"),
        "fail_rate": (runner.failed / runner.attempted, "ratio"),
    }
    details = {"spans": timing["spans"], "counts": counts, "alloc_mb": alloc,
               "import_probes_s": [c.wall_s for c in imports],
               "untraced_wall_s": cli.wall_s}
    return metrics, details


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_block(seed: int, src_sha: str) -> dict:
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = next((line.split(":", 1)[1].strip()
                  for line in (read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind != "Instruction":
            caches[f"l{level}"] = size
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else "unknown: not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown: no git"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_sha256": src_sha, "seed": seed}


def preflight():
    """Exit 1 unless the checkout's own sources are the ones imported.
    The import also leaves compiled bytecode behind, so the first timed
    start-up does not pay for it."""
    cli = SRC / "f2orbits" / "cli.py"
    if not cli.is_file():
        sys.exit(f"benchmark: {cli} not found; run from the root of a source checkout")
    proc = subprocess.run([sys.executable, "-c", "import f2orbits.cli as c; print(c.__file__)"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=60)
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve() != cli.resolve():
        sys.exit(f"benchmark: importing f2orbits.cli failed or found another copy: "
                 f"{proc.stdout.strip()} {proc.stderr.strip()[-500:]}")


def load_state() -> dict:
    try:
        return json.loads((WORK / "state.json").read_text())
    except (OSError, ValueError):
        return {}


def save_state(state: dict):
    tmp = WORK / "state.json.tmp"
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, WORK / "state.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="f2orbits benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    preflight()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    src_sha = source_sha256()
    state = load_state()
    known = state.get(src_sha, {}).get(args.workload, {})
    runner = Runner(WORKLOADS[args.workload], known.get("stdout_sha256"))

    if args.trace:
        metrics, details = measure_layers(runner, args.seed, known.get("counts"))
        if metrics is None:
            print("benchmark: the layer pass failed:", *runner.problems,
                  sep="\n  ", file=sys.stderr)
            return 1
    else:
        metrics, details = measure_end_to_end(runner, args.seconds)

    machine = machine_block(args.seed, src_sha)
    trace_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_path.write_text(json.dumps({"machine": machine, "workload": args.workload,
                                      "problems": runner.problems, **details}, indent=1))
    correct = not runner.problems
    if correct:
        entry = state.setdefault(src_sha, {}).setdefault(args.workload, {})
        entry["stdout_sha256"] = runner.stdout_sha
        if args.trace:
            entry["counts"] = details["counts"]
        save_state(state)

    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    validate_result(result, SPEC, bool(args.trace))
    for problem in runner.problems:
        print("problem:", problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f} {unit}")
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
