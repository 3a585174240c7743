"""Classification tables, reference comparison, and serialization.

Rows are sorted first by increasing rank, within each rank by increasing
orbit size, and within each size by the canonical code; ordinals count
from 1 in that order.  Canonical forms render as bit strings with '.'
for 0, most significant entry first, so the string reads in the same
left-to-right order as the flattening.

Reference tables live as plain-text files under refdata/.  They are
transcribed data, kept separate from the computation on purpose: a test
failure against them distinguishes a transcription error from an engine
error.
"""

from dataclasses import dataclass
from importlib import resources

from .orbits import LargeOrbitAtlas, OrbitAtlas
from .ranks import DistributionRow, RankAtlas, decimal_string, large_orbit_ranks
from .tensor import Shape


@dataclass(frozen=True)
class ClassificationRow:
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
        triples = [(int(rk), r.size, r.canonical)
                   for r, rk in zip(atlas.records, ranks.by_orbit[1:])]
    elif flavor == "large":
        if large is None:
            raise ValueError("flavor 'large' needs a LargeOrbitAtlas")
        by_large = large_orbit_ranks(large, ranks)
        triples = [(int(rk), r.size, r.canonical)
                   for r, rk in zip(large.records, by_large[1:])]
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    triples.sort()
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


def _refdata(name: str) -> str:
    return resources.files("f2orbits").joinpath("refdata").joinpath(name).read_text()


def load_reference(format_str: str, flavor: str = "small") -> ReferenceTable:
    summary = None
    for line in _refdata("summary.txt").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fmt, flav, tensors, order, count, mx = line.split()
        if fmt == format_str and flav == flavor:
            summary = (int(tensors), int(order), int(count), int(mx))
    if summary is None:
        raise NoReferenceError(f"no reference for {format_str} ({flavor} group)")

    rows = None
    try:
        text = _refdata(f"{format_str}_{flavor}.txt")
    except FileNotFoundError:
        pass
    else:
        body = [ln.split() for ln in text.splitlines()[1:] if ln.strip()]
        rows = tuple((int(r), int(s), b) for r, s, b in body)

    dist = []
    for line in _refdata("distributions.txt").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fmt, flav, rank, orbits, tensors, pct = line.split()
        if fmt == format_str and flav == flavor:
            dist.append((int(rank), int(orbits), int(tensors), pct))
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
    checked = 0
    if ref.rows is not None:
        for row, (rk, sz, bits) in zip(rows, ref.rows):
            checked += 1
            for field, got, want in (("rank", row.rank, rk),
                                     ("size", row.size, sz),
                                     ("canonical_bits", row.canonical_bits, bits)):
                if got != want:
                    bad.append(f"row {row.ordinal}: {field} "
                               f"computed {got} != reference {want}")
        if len(rows) != len(ref.rows):
            bad.append(f"row count: computed {len(rows)} "
                       f"!= reference {len(ref.rows)}")
    if distribution is not None and ref.distribution is not None:
        for got, want in zip(distribution, ref.distribution):
            rk, orbits, tensors, pct = want
            for field, g, w in (("orbits", got.orbits, orbits),
                                ("tensors", got.tensors, tensors),
                                ("percent", got.percent, pct)):
                if g != w:
                    bad.append(f"rank {rk} distribution: {field} "
                               f"computed {g} != reference {w}")
        if len(distribution) != len(ref.distribution):
            bad.append(f"distribution rows: computed {len(distribution)} "
                       f"!= reference {len(ref.distribution)}")
    return DiffReport(format_str, flavor, checked, tuple(bad))


# ---- stabilization of p x 2 x 2 canonical forms ----

@dataclass(frozen=True)
class ConjectureReport:
    p: int
    forms_match: tuple         # per-row bool
    rank4_size: int
    fraction_str: str          # 4 decimal places

    @property
    def ok(self) -> bool:
        return all(self.forms_match)


def expected_stable_forms(p: int) -> list[tuple[int, str]]:
    """The ten (rank, bits) patterns, padded with leading zero entries to
    width 4p.  For p >= 4 the classification reuses the p=4 forms."""
    out = []
    for line in _refdata("conjecture_p22.txt").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        _, rank, bits = line.split()
        out.append((int(rank), "." * (4 * p - 16) + bits))
    return out


def check_conjecture_p22(p: int, shape: Shape,
                         rows: list[ClassificationRow]) -> ConjectureReport:
    if p < 4:
        raise ValueError(f"stabilization is stated for p >= 4, got p={p}")
    if shape.dims != (p, 2, 2):
        raise ValueError(f"rows are for {shape}, expected {p}x2x2")
    expected = expected_stable_forms(p)
    if len(rows) != len(expected):
        raise RuntimeError(
            f"p={p}: {len(rows)} nonzero orbits, stabilization predicts {len(expected)}")
    match = tuple(r.canonical_bits == bits and r.rank == rk
                  for r, (rk, bits) in zip(rows, expected))
    rank4 = [r for r in rows if r.rank == 4]
    if len(rank4) != 1:
        raise RuntimeError(f"p={p}: expected a unique rank-4 orbit, found {len(rank4)}")
    size = rank4[0].size
    return ConjectureReport(p, match, size, decimal_string(size, shape.code_bound))


# ---- emission ----

CSV_HEADER = "ordinal,rank,size,canonical_bits,canonical_code"


def emit(payload, fmt: str = "text") -> str:
    """Serialize classification rows or a rank distribution as text or
    CSV.  classify --emit json builds its own document."""
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown output format {fmt!r}")
    payload = list(payload)
    if payload and isinstance(payload[0], DistributionRow):
        return _emit_distribution(payload, fmt)
    return _emit_rows(payload, fmt)


def _emit_rows(rows, fmt):
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines += [f"{r.ordinal},{r.rank},{r.size},{r.canonical_bits},{r.canonical_code}"
                  for r in rows]
        return "\n".join(lines) + "\n"
    if not rows:
        return ""
    wid = max(len(str(r.size)) for r in rows)
    return "".join(f"{r.ordinal:>3} {r.rank} {r.size:>{wid}}  {r.canonical_bits}\n"
                   for r in rows)


def _emit_distribution(dist, fmt):
    if fmt == "csv":
        lines = ["rank,orbits,tensors,percent"]
        lines += [f"{d.rank},{d.orbits},{d.tensors},{d.percent}" for d in dist]
        return "\n".join(lines) + "\n"
    wid = max(len(str(d.tensors)) for d in dist)
    return "".join(f"rank {d.rank}: {d.orbits:>3} orbits {d.tensors:>{wid}} tensors"
                   f" {d.percent:>8} %\n" for d in dist)

