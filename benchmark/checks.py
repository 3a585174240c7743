"""Checks the benchmark applies to what it measures.

check_classify_text compares the text output of `f2orbits classify`
with a stored reference table, parsing the text itself instead of
calling the engine, so an engine bug cannot hide behind its own output.
validate_result rejects a result line that does not carry exactly the
metrics BENCHMARK.json names, each with its declared unit.
"""

import math
import re

_ROW = re.compile(r" *(\d+) (\d+) +(\d+)  ([.1]+)")
_DIST = re.compile(r"rank (\d+): +(\d+) orbits +(\d+) tensors +(\d+\.\d{4}) %")

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_classify_text(text: str, ref) -> list[str]:
    """Problems found comparing classify's text output with a
    report.ReferenceTable; an empty list means every row and every
    distribution line matches."""
    if ref.rows is None or ref.distribution is None:
        return [f"{ref.format} ({ref.flavor}) has no full reference table"]
    table, sep, dist = text.partition("\n\n")
    if not sep or not dist.endswith("\n"):
        return ["output is not a table, a blank line and a distribution"]
    problems = []

    lines = table.split("\n")
    if len(lines) != len(ref.rows):
        problems.append(f"{len(lines)} table rows, reference has {len(ref.rows)}")
    for ordinal, (line, (rank, size, bits)) in enumerate(zip(lines, ref.rows), start=1):
        m = _ROW.fullmatch(line)
        got = (int(m[1]), int(m[2]), int(m[3]), m[4]) if m else line
        if got != (ordinal, rank, size, bits):
            problems.append(f"row {ordinal}: got {got!r}, "
                            f"reference {(ordinal, rank, size, bits)!r}")

    lines = dist[:-1].split("\n")
    if len(lines) != len(ref.distribution):
        problems.append(f"{len(lines)} distribution lines, "
                        f"reference has {len(ref.distribution)}")
    for line, want in zip(lines, ref.distribution):
        m = _DIST.fullmatch(line)
        got = (int(m[1]), int(m[2]), int(m[3]), m[4]) if m else line
        if got != tuple(want):
            problems.append(f"distribution: got {got!r}, reference {tuple(want)!r}")
    return problems


def validate_result(result, spec: dict, trace: bool) -> None:
    """Raise ValueError unless result is a well-formed result line for
    BENCHMARK.json's spec: the four keys, whole-number counts, and
    exactly the end-to-end (trace off) or per-layer (trace on) metrics,
    each a finite number with the declared unit."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"result keys must be {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    attempted, failed = result["attempted"], result["failed"]
    for key, value in (("attempted", attempted), ("failed", failed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} must be a whole number")
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"need 1 <= attempted and 0 <= failed <= attempted, "
                         f"got {attempted} and {failed}")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be an object")
    missing, extra = units.keys() - metrics.keys(), metrics.keys() - units.keys()
    if missing or extra:
        raise ValueError(f"metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, unit in units.items():
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError(f"{name} must have exactly a value and a unit")
        if entry["unit"] != unit:
            raise ValueError(f"{name} has unit {entry['unit']!r}, expected {unit!r}")
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
