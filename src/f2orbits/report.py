"""Classification tables, reference comparison, and serialization.

Rows are sorted first by increasing rank, within each rank by increasing
orbit size, and within each size by the canonical code; ordinals count
from 1 in that order.  Canonical forms render as bit strings with '.'
for 0, most significant entry first, so the string reads in the same
left-to-right order as the flattening.  Both table records are
NamedTuples: their fields are the CSV columns in order, _asdict() gives
the JSON objects, and _replace edits a record.

Reference tables live as plain-text files under refdata/.  They are
transcribed data, kept separate from the computation on purpose: a test
failure against them distinguishes a transcription error from an engine
error.  They are the one record of every expected value, read only
through load_reference: verify compares against them, and conjecture
takes the stable p x 2 x 2 forms from the 4x2x2 table.
"""

from dataclasses import dataclass
from importlib import resources
from itertools import zip_longest
from typing import NamedTuple

from .orbits import LargeOrbitAtlas, OrbitAtlas
from .ranks import DistributionRow, RankAtlas, decimal_string, large_orbit_ranks
from .tensor import Shape


class ClassificationRow(NamedTuple):
    ordinal: int
    rank: int
    size: int
    canonical_bits: str
    canonical_code: int


def render_bits(shape: Shape, code: int) -> str:
    if not 0 <= code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape}")
    n = shape.entry_count
    return format(code, f"0{n}b").replace("0", ".")


def summarize(shape: Shape, atlas: OrbitAtlas, ranks: RankAtlas,
              flavor: str = "small",
              large: LargeOrbitAtlas | None = None) -> list[ClassificationRow]:
    """Classification rows for the nonzero orbits, table order."""
    if flavor == "small":
        by_orbit, orbits = ranks.by_orbit, atlas
    elif flavor == "large":
        if large is None:
            raise ValueError("flavor 'large' needs a LargeOrbitAtlas")
        by_orbit, orbits = large_orbit_ranks(large, ranks), large
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    triples = sorted(zip(by_orbit[1:].tolist(), orbits.sizes[1:].tolist(),
                         orbits.canonicals[1:].tolist()))
    return [ClassificationRow(i, rk, sz, render_bits(shape, c), c)
            for i, (rk, sz, c) in enumerate(triples, start=1)]


# ---- reference tables ----

class NoReferenceError(LookupError):
    """No reference table for the requested format and flavor."""


@dataclass(frozen=True)
class ReferenceTable:
    format: str
    flavor: str
    tensors: int
    group_order: int
    orbit_count: int          # includes the zero orbit
    max_rank: int
    rows: tuple | None        # (rank, size, bits) triples, or None if summary-only
    distribution: tuple | None  # (rank, orbits, tensors, percent) or None


def _records(name: str) -> list[list[str]]:
    """The fields of every record of a refdata file: each line that is
    neither blank nor a # comment, split on whitespace."""
    text = resources.files("f2orbits").joinpath("refdata").joinpath(name).read_text()
    return [line.split() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]


def load_reference(format_str: str, flavor: str = "small") -> ReferenceTable:
    summary = None
    for fmt, flav, tensors, order, count, mx in _records("summary.txt"):
        if fmt == format_str and flav == flavor:
            summary = (int(tensors), int(order), int(count), int(mx))
    if summary is None:
        raise NoReferenceError(f"no reference for {format_str} ({flavor} group)")

    try:
        # the first record is the table's header: format, flavor, group order
        body = _records(f"{format_str}_{flavor}.txt")[1:]
    except FileNotFoundError:
        rows = None
    else:
        rows = tuple((int(r), int(s), b) for r, s, b in body)

    dist = [(int(rank), int(orbits), int(tensors), pct)
            for fmt, flav, rank, orbits, tensors, pct in _records("distributions.txt")
            if fmt == format_str and flav == flavor]
    return ReferenceTable(format_str, flavor, *summary, rows,
                          tuple(dist) if dist else None)


@dataclass(frozen=True)
class DiffReport:
    format: str
    flavor: str
    rows_checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        """One pass line, or one line per mismatch."""
        if self.ok:
            return (f"{self.format} ({self.flavor} group): "
                    f"pass, {self.rows_checked} rows matched\n")
        return "".join(f"{self.format} ({self.flavor} group): {m}\n"
                       for m in self.mismatches)


def verify_reference(format_str: str, flavor: str,
                     rows: list[ClassificationRow], *,
                     group_order: int | None = None,
                     distribution: list[DistributionRow] | None = None) -> DiffReport:
    """Compare computed rows (and optionally the group order and rank
    distribution) against the stored reference.  Raises NoReferenceError
    when there is nothing to compare against."""
    ref = load_reference(format_str, flavor)
    bad = []
    if len(rows) + 1 != ref.orbit_count:
        bad.append(f"orbit count: computed {len(rows) + 1} "
                   f"(with zero orbit) != reference {ref.orbit_count}")
    mx = max((r.rank for r in rows), default=0)
    if mx != ref.max_rank:
        bad.append(f"max rank: computed {mx} != reference {ref.max_rank}")
    if group_order is not None and group_order != ref.group_order:
        bad.append(f"group order: computed {group_order} "
                   f"!= reference {ref.group_order}")
    # compared fields end each reference record; a label reads got or want
    tables = [("row {got.ordinal}", "row count", rows, ref.rows,
               ("rank", "size", "canonical_bits")),
              ("rank {want[0]} distribution", "distribution rows", distribution,
               ref.distribution, ("orbits", "tensors", "percent"))]
    for label, count_name, computed, reference, fields in tables:
        if computed is None or reference is None:
            continue
        for got, want in zip(computed, reference):
            for field, value in zip(fields, want[-len(fields):]):
                if getattr(got, field) != value:
                    bad.append(f"{label.format(got=got, want=want)}: {field} "
                               f"computed {getattr(got, field)} != reference {value}")
        if len(computed) != len(reference):
            bad.append(f"{count_name}: computed {len(computed)} "
                       f"!= reference {len(reference)}")
    checked = 0 if ref.rows is None else min(len(rows), len(ref.rows))
    return DiffReport(format_str, flavor, checked, tuple(bad))


# ---- stabilization of p x 2 x 2 canonical forms ----

@dataclass(frozen=True)
class ConjectureReport:
    """A row that the computed or the stable table lacks fails its form;
    rank4_size counts every rank-4 tensor, one orbit's when all match."""
    forms_match: tuple         # per-row bool
    rank4_size: int
    fraction_str: str          # 4 decimal places

    @property
    def ok(self) -> bool:
        return all(self.forms_match)


def check_conjecture_p22(shape: Shape,
                         rows: list[ClassificationRow]) -> ConjectureReport:
    """Compare the rows of p x 2 x 2 with the stored 4x2x2 table, whose
    (rank, bits) rows are the stable forms once padded with 4p - 16
    leading zero entries.  A differing row count or a second rank-4 orbit
    fails a form, and rank4_size then sums the rank-4 rows."""
    p = shape.dims[0]
    if shape.dims[1:] != (2, 2) or p < 4:
        raise ValueError(f"stabilization is stated for p x 2 x 2 with p >= 4, got {shape}")
    expected = [(rank, "." * (4 * p - 16) + bits)
                for rank, _, bits in load_reference("4x2x2").rows]
    match = tuple(r is not None and (r.rank, r.canonical_bits) == form
                  for r, form in zip_longest(rows, expected))
    size = sum(r.size for r in rows if r.rank == 4)
    return ConjectureReport(match, size, decimal_string(size, shape.code_bound))


# ---- emission ----

CSV_HEADER = ",".join(ClassificationRow._fields)


def emit(payload, fmt: str = "text") -> str:
    """Serialize classification rows or a rank distribution as text or
    CSV.  Both are NamedTuples: a CSV header is the record's _fields and a
    line its values, in order, and classify --emit json writes each
    _asdict().  An empty payload is an empty classification table."""
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown output format {fmt!r}")
    records = list(payload)
    if fmt == "csv":
        lines = [",".join(records[0]._fields) if records else CSV_HEADER]
        lines += [",".join(map(str, r)) for r in records]
        return "\n".join(lines) + "\n"
    if records and isinstance(records[0], DistributionRow):
        wid = max(len(str(d.tensors)) for d in records)
        return "".join(f"rank {d.rank}: {d.orbits:>3} orbits {d.tensors:>{wid}} tensors"
                       f" {d.percent:>8} %\n" for d in records)
    wid = max((len(str(r.size)) for r in records), default=0)
    return "".join(f"{r.ordinal:>3} {r.rank} {r.size:>{wid}}  {r.canonical_bits}\n"
                   for r in records)
