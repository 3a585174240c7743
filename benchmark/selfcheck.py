"""Self-check of the benchmark's own checks.

    python3 benchmark/selfcheck.py

Run from the root of a source checkout; takes a few seconds.  It runs
`f2orbits classify --format 3x2x2` once through the benchmark's runner
and then confirms that:

- the untouched output passes the reference check and counts as passed;
- every single alteration of one row or one distribution line fails
  the check, and counts toward the runner's failures;
- output that passes the row check but differs by a byte from an
  earlier invocation counts as a failure;
- a result line missing any metric named in BENCHMARK.json, or carrying
  a wrong unit, an extra metric or a non-finite value, is rejected.

Exits 0 when every case behaves, 1 otherwise.
"""

import dataclasses
import re
import sys

import run
from checks import check_classify_text, validate_result


def alterations(text):
    """(what, altered text) pairs, each one edit away from text."""
    lines = text.split("\n")
    blank = lines.index("")

    def with_line(i, new):
        return "\n".join(lines[:i] + [new] + lines[i + 1:])

    first, last_row, first_dist = lines[0], lines[blank - 1], lines[blank + 1]
    yield "rank of row 1", with_line(
        0, re.sub(r"^( *\d+ )(\d+)", lambda m: f"{m[1]}{int(m[2]) + 1}", first))
    yield "size of the last row", with_line(
        blank - 1, re.sub(r"(\d+)(  [.1]+)$", lambda m: f"{int(m[1]) + 1}{m[2]}", last_row))
    yield "one bit of row 1", with_line(0, first[:-1] + ("." if first[-1] == "1" else "1"))
    yield "row 2 dropped", "\n".join(lines[:1] + lines[2:])
    yield "row 1 repeated", "\n".join(lines[:1] + lines)
    yield "one percentage", with_line(
        blank + 1, re.sub(r"(\d) %$", lambda m: f"{(int(m[1]) + 1) % 10} %", first_dist))
    yield "distribution line added", text + lines[-2] + "\n"
    yield "empty output", ""


def main() -> int:
    run.preflight()
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    runner = run.Runner(run.Workload("3x2x2", "small", snapshot=False), None)
    good = runner.classify(None)
    expect(runner.failed == 0, f"untouched output failed: {runner.problems}")
    text = good.stdout.decode()

    fake = good
    runner.run = lambda argv: fake
    for what, altered in alterations(text):
        expect(check_classify_text(altered, runner.ref), f"check passed with {what}")
        before = runner.failed
        fake = dataclasses.replace(good, stdout=altered.encode())
        runner.classify(None)
        expect(runner.failed == before + 1, f"runner did not count {what} as failed")

    respaced = text.replace(": ", ":  ", 1)
    expect(not check_classify_text(respaced, runner.ref), "respaced output is still valid")
    before = runner.failed
    fake = dataclasses.replace(good, stdout=respaced.encode())
    runner.classify(None)
    expect(runner.failed == before + 1, "a byte difference between invocations passed")

    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in run.SPEC[group]}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        bad = []
        for name in metrics:
            bad.append((f"{group} without {name}", {
                **result, "metrics": {k: v for k, v in metrics.items() if k != name}}))
            bad.append((f"{group} {name} with a wrong unit", {
                **result, "metrics": {**metrics, name: {"value": 1.0, "unit": "wrong"}}}))
        bad.append((f"{group} with an extra metric", {
            **result, "metrics": {**metrics, "extra": {"value": 1.0, "unit": "s"}}}))
        first = next(iter(metrics))
        bad.append((f"{group} with a NaN", {
            **result, "metrics": {**metrics, first: {"value": float("nan"),
                                                     "unit": metrics[first]["unit"]}}}))
        bad.append((f"{group} without failed", {
            k: v for k, v in result.items() if k != "failed"}))
        try:
            validate_result(result, run.SPEC, trace)
        except ValueError as exc:
            failures.append(f"a complete {group} result was rejected: {exc}")
        for what, candidate in bad:
            try:
                validate_result(candidate, run.SPEC, trace)
            except ValueError:
                continue
            failures.append(f"accepted a result {what}")

    for failure in failures:
        print("selfcheck FAILED:", failure)
    if not failures:
        print("selfcheck: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
