"""Table rendering, reference comparison, stable-form checks, emission."""

import csv

import pytest

from f2orbits.group import small_group_order
from f2orbits.report import (CSV_HEADER, ClassificationRow, DiffReport,
                             NoReferenceError, check_conjecture_p22, emit,
                             load_reference, render_bits, summarize,
                             verify_reference)
from f2orbits.orbits import enumerate_orbits, merge_large_orbits
from f2orbits.ranks import DistributionRow, propagate_ranks, rank_distribution
from f2orbits.tensor import Shape, parse_shape


def test_render_bits():
    s = Shape((2, 2, 2))
    assert render_bits(s, 1) == ".......1"
    assert render_bits(s, 107) == ".11.1.11"
    assert render_bits(s, 0) == "........"
    assert render_bits(s, 255) == "11111111"
    with pytest.raises(ValueError):
        render_bits(s, 256)


def test_summarize_known_table(engine):
    rows = engine.rows("2x2x2")
    assert [(r.ordinal, r.rank, r.size, r.canonical_bits, r.canonical_code)
            for r in rows] == [
        (1, 1, 27, ".......1", 1),
        (2, 2, 18, ".....11.", 6),
        (3, 2, 18, "...1..1.", 18),
        (4, 2, 18, "...1.1..", 20),
        (5, 2, 108, "...11...", 24),
        (6, 3, 12, ".11.1.11", 107),
        (7, 3, 54, "...1.11.", 22),
    ]


def test_summarize_row_anchors(engine):
    rows = engine.rows("3x3x2")
    assert len(rows) == 20
    assert (rows[19].rank, rows[19].size) == (5, 8064)
    rows = engine.rows("3x3x3", flavor="large")
    assert len(rows) == 55
    assert (rows[52].rank, rows[52].size) == (6, 32256)


def test_summarize_sort_order(engine):
    for fmt, flavor in (("3x2x2", "small"), ("3x3x2", "small"),
                        ("2x2x2x2", "large")):
        rows = engine.rows(fmt, flavor=flavor)
        triples = [(r.rank, r.size, r.canonical_code) for r in rows]
        assert triples == sorted(triples)
        assert [r.ordinal for r in rows] == list(range(1, len(rows) + 1))


def test_summarize_large_requires_merge(engine):
    with pytest.raises(ValueError):
        summarize(engine.shape("2x2x2"), engine.atlas("2x2x2"),
                  engine.ranks("2x2x2"), flavor="large")
    with pytest.raises(ValueError):
        summarize(engine.shape("2x2x2"), engine.atlas("2x2x2"),
                  engine.ranks("2x2x2"), flavor="medium")


def test_load_reference_fields():
    ref = load_reference("2x2x2", "small")
    assert ref.tensors == 256
    assert ref.group_order == 216
    assert ref.orbit_count == 8          # includes the zero orbit
    assert ref.max_rank == 3
    assert len(ref.rows) == 7
    assert ref.rows[5] == (3, 12, ".11.1.11")
    assert ref.distribution is not None

    summary_only = load_reference("2x2x2x2", "large")
    assert summary_only.rows is None
    assert summary_only.distribution is None
    assert summary_only.group_order == 31104

    cubic = load_reference("3x3x3", "small")
    assert cubic.orbit_count == 116
    assert cubic.group_order == 4741632
    assert cubic.rows is None            # counts and distribution only
    assert len(cubic.distribution) == 7

    with pytest.raises(NoReferenceError):
        load_reference("9x9x9", "small")
    with pytest.raises(NoReferenceError):
        load_reference("2x2x2x2", "small")


def test_verify_pass(engine):
    diff = verify_reference("4x2x2", "small", engine.rows("4x2x2"),
                            group_order=small_group_order(engine.shape("4x2x2")),
                            distribution=engine.distribution("4x2x2"))
    assert diff.ok
    assert diff.rows_checked == 10
    assert isinstance(diff, DiffReport)


def test_verify_names_ordinal_and_field(engine):
    rows = list(engine.rows("2x2x2"))
    rows[2] = ClassificationRow(3, 2, 19, rows[2].canonical_bits,
                                rows[2].canonical_code)
    diff = verify_reference("2x2x2", "small", rows)
    assert not diff.ok
    assert diff.mismatches == ("row 3: size computed 19 != reference 18",)
    # a missing row shows in the orbit count and the row count, and a row
    # relabeled past the reference's top rank in the max rank and its rank
    full = engine.rows("2x2x2")
    assert verify_reference("2x2x2", "small", full[:-1]).mismatches == (
        "orbit count: computed 7 (with zero orbit) != reference 8",
        "row count: computed 6 != reference 7")
    last = full[-1]
    relabeled = full[:-1] + [ClassificationRow(last.ordinal, 4, last.size,
                                               last.canonical_bits, last.canonical_code)]
    assert verify_reference("2x2x2", "small", relabeled).mismatches == (
        "max rank: computed 4 != reference 3",
        "row 7: rank computed 4 != reference 3")


def test_verify_catches_group_order(engine):
    diff = verify_reference("2x2x2", "small", engine.rows("2x2x2"),
                            group_order=215)
    assert not diff.ok
    assert any("group order" in m for m in diff.mismatches)


def test_verify_catches_distribution(engine):
    dist = list(engine.distribution("2x2x2"))
    dist[2] = dist[2]._replace(percent="63.2812")
    diff = verify_reference("2x2x2", "small", engine.rows("2x2x2"),
                            distribution=dist)
    assert not diff.ok
    assert diff.mismatches == (
        "rank 2 distribution: percent computed 63.2812 != reference 63.2813",)
    # the count line follows the field lines, whichever side is longer
    full = engine.distribution("2x2x2")
    for cut, computed in ((full[:-1], 3), (full + full[-1:], 5)):
        diff = verify_reference("2x2x2", "small", engine.rows("2x2x2"), distribution=cut)
        assert diff.mismatches == (f"distribution rows: computed {computed} != reference 4",)


def test_stable_forms_p4(engine):
    rep = check_conjecture_p22(engine.shape("4x2x2"), engine.rows("4x2x2"))
    assert rep.ok
    assert rep.rank4_size == 20160
    assert rep.fraction_str == "0.3076"


def test_stable_forms_padding(engine):
    # the stable forms of 5x2x2 are the rows of the stored 4x2x2 table,
    # each padded with 4 leading zero entries; the check accepts exactly
    # those rows and flags a form that moves within its padded width
    forms = [(rank, "...." + bits) for rank, _, bits in load_reference("4x2x2").rows]
    assert len(forms) == 10
    assert all(len(bits) == 20 for _, bits in forms)
    assert all(bits.startswith("....") for _, bits in forms)
    assert forms[0] == (1, "." * 19 + "1")
    rows = engine.rows("5x2x2")
    assert [(r.rank, r.canonical_bits) for r in rows] == forms
    assert check_conjecture_p22(engine.shape("5x2x2"), rows).ok
    moved = rows[:]
    moved[0] = ClassificationRow(1, 1, rows[0].size, "...1" + "." * 16, 1 << 16)
    assert check_conjecture_p22(engine.shape("5x2x2"), moved).forms_match == \
        (False,) + (True,) * 9
    # a second rank-4 orbit, in place of a row or as an 11th row, fails
    # that form and is counted with the first rather than raising
    relabeled = rows[:8] + [rows[8]._replace(rank=4)] + rows[9:]
    rep = check_conjecture_p22(engine.shape("5x2x2"), relabeled)
    assert not rep.ok and rep.forms_match == (True,) * 8 + (False, True)
    assert rep.rank4_size == rows[8].size + rows[9].size
    rep = check_conjecture_p22(engine.shape("5x2x2"), rows + rows[9:])
    assert not rep.ok and rep.forms_match == (True,) * 10 + (False,)
    assert rep.rank4_size == 2 * rows[9].size


def test_conjecture_preconditions(engine):
    # the shape alone decides: p x 2 x 2 with p >= 4
    with pytest.raises(ValueError):
        check_conjecture_p22(engine.shape("3x2x2"), engine.rows("3x2x2"))
    with pytest.raises(ValueError):
        check_conjecture_p22(engine.shape("2x2x2"), engine.rows("2x2x2"))
    for fmt in ("4x3x2", "4x4", "5x2"):
        with pytest.raises(ValueError):
            check_conjecture_p22(parse_shape(fmt), [])


def test_emit_csv(engine):
    text = emit(engine.rows("2x2x2"), "csv")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "ordinal,rank,size,canonical_bits,canonical_code"
    assert CSV_HEADER == ",".join(ClassificationRow._fields)
    assert lines[1] == "1,1,27,.......1,1"
    assert len(lines) == 8


def test_emit_csv_empty_is_header_only():
    assert emit([], "csv") == CSV_HEADER + "\n"


def test_emit_text_layout(engine):
    text = emit(engine.rows("2x2x2"), "text")
    assert ".11.1.11" in text
    assert text.splitlines()[0].split() == ["1", "1", "27", ".......1"]


def test_emit_distribution(engine):
    text = emit(engine.distribution("2x2x2"), "csv")
    assert text.splitlines()[0] == "rank,orbits,tensors,percent" == \
        ",".join(DistributionRow._fields)
    assert "2,4,162,63.2813" in text


def test_emit_diff(engine):
    diff = verify_reference("2x2x2", "small", engine.rows("2x2x2"))
    assert diff.render() == "2x2x2 (small group): pass, 7 rows matched\n"
    bad = verify_reference("2x2x2", "small", engine.rows("2x2x2"), group_order=215)
    assert bad.render() == \
        "2x2x2 (small group): group order: computed 215 != reference 216\n"
    # every kind at once renders in one order: the orbit count, max rank
    # and group order, then the rows table, then the distribution table
    rows, dist = engine.rows("2x2x2"), list(engine.distribution("2x2x2"))
    last = rows[-2]
    rows = rows[:-2] + [ClassificationRow(last.ordinal, 4, 13, ".11.1.1.",
                                          last.canonical_code)]
    dist[1] = dist[1]._replace(orbits=2, tensors=28)
    bad = verify_reference("2x2x2", "small", rows, group_order=215, distribution=dist[:-1])
    assert bad.render() == "".join(f"2x2x2 (small group): {line}\n" for line in (
        "orbit count: computed 7 (with zero orbit) != reference 8",
        "max rank: computed 4 != reference 3",
        "group order: computed 215 != reference 216",
        "row 6: rank computed 4 != reference 3",
        "row 6: size computed 13 != reference 12",
        "row 6: canonical_bits computed .11.1.1. != reference .11.1.11",
        "row count: computed 6 != reference 7",
        "rank 1 distribution: orbits computed 2 != reference 1",
        "rank 1 distribution: tensors computed 28 != reference 27",
        "distribution rows: computed 3 != reference 4"))


def test_emit_rejects_unknown_format(engine):
    for fmt in ("yaml", "json"):
        with pytest.raises(ValueError):
            emit(engine.rows("2x2x2"), fmt)
        with pytest.raises(ValueError):
            emit(engine.distribution("2x2x2"), fmt)


def test_csv_roundtrip(engine):
    for fmt in ("2x2x2", "3x2x2"):
        rows = engine.rows(fmt)
        header, *body = csv.reader(emit(rows, "csv").splitlines())
        assert ",".join(header) == CSV_HEADER
        assert [ClassificationRow(int(o), int(rk), int(sz), bits, int(code))
                for o, rk, sz, bits, code in body] == list(rows)


def test_classify_format_pipeline():
    shape = parse_shape("2x2x2")
    atlas = enumerate_orbits(shape)
    ranks = propagate_ranks(shape, atlas)
    large = merge_large_orbits(shape, atlas)
    rows = summarize(shape, atlas, ranks, flavor="large", large=large)
    dist = rank_distribution(atlas, ranks, large=large)
    assert str(shape) == "2x2x2"
    assert atlas.orbit_count == 7
    assert large.orbit_count == 5
    assert len(rows) == 5
    assert sum(d.tensors for d in dist) == 256
