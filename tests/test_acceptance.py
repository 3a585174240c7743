"""End-to-end acceptance checks.

Run with -v to get one pass/fail line per criterion:

  1. summary table (orbit count, group order, max rank) for all ten formats
  2. every classification row for the seven formats with stored row tables
  3. rank distribution blocks including rendered percentages
  4. orbit-size lists for the two largest p x 2 x 2 formats
  5. stable canonical forms for p = 4, 5, 6 and the rank-4 orbit fractions
  6. brute-force rank agrees with propagated rank on every nonzero code
     of the two smallest formats
  7. properties that hold without any reference data, on all ten
     formats: the orbits partition the codes, their sizes divide the
     group order, flipping one entry moves the rank by at most one and by
     one somewhere (on every code of the five formats of at most 2^18),
     and the small-group rank distribution sums to the code count, with
     the zero orbit alone at rank 0
  8. small-to-large orbit merge counts for the two four-way/cubic formats

The expected values are frozen literals here, independent of the refdata
files; criterion 1 also cross-checks that the stored summary agrees.

One summary row is expected to fail: for 2x2x2x2 the stored table says 31
orbits including zero, but the computed count is 30.  Two methods agree
on 30: merging the small-group orbits under mode permutations, and
enumerating directly under the large group with the mode permutations as
extra generators (tests/test_orbits.py::test_merge_matches_direct_enumeration
checks that they agree on 2x2x2x2).  So the check is marked xfail rather
than silently adjusted.
"""

import numpy as np
import pytest
from entry_oracle import brute_force_rank

from f2orbits.group import large_group_order, small_group_order
from f2orbits.report import load_reference

SUMMARY = [
    # format, flavor, tensors, group order, orbits incl zero, max rank
    ("2x2x2", "small", 256, 216, 8, 3),
    ("3x2x2", "small", 4096, 6048, 10, 3),
    ("4x2x2", "small", 65536, 725760, 11, 4),
    ("5x2x2", "small", 1048576, 359976960, 11, 4),
    ("6x2x2", "small", 16777216, 725713551360, 11, 4),
    ("3x3x2", "small", 262144, 169344, 21, 5),
    ("4x3x2", "small", 16777216, 20321280, 28, 5),
    ("3x3x3", "large", 134217728, 28449792, 56, 6),
    ("2x2x2x2", "large", 65536, 31104, 31, 6),
    ("3x2x2x2", "large", 16777216, 217728, 213, 6),
]

ROW_TABLE_FORMATS = [("2x2x2", "small"), ("3x2x2", "small"), ("4x2x2", "small"),
                     ("5x2x2", "small"), ("6x2x2", "small"), ("3x3x2", "small"),
                     ("4x3x2", "small"), ("3x3x3", "large"), ("3x2x2x2", "large")]

DISTRIBUTION_PAIRS = [("2x2x2", "small"), ("3x2x2", "small"), ("4x2x2", "small"),
                      ("5x2x2", "small"), ("6x2x2", "small"), ("3x3x2", "small"),
                      ("4x3x2", "small"), ("3x3x3", "small"), ("3x3x3", "large"),
                      ("3x2x2x2", "small"), ("3x2x2x2", "large")]

_SUMMARY_PARAMS = [
    pytest.param(*row, marks=pytest.mark.xfail(
        strict=True,
        reason="stored summary says 31 orbits for 2x2x2x2 but the computed "
               "count is 30, by merging small-group orbits under mode "
               "permutations and by direct enumeration under the large "
               "group; the stored value is kept verbatim"))
    if row[0] == "2x2x2x2" else pytest.param(*row)
    for row in SUMMARY
]


@pytest.mark.parametrize("fmt,flavor,tensors,order,orbits,max_rank",
                         _SUMMARY_PARAMS)
def test_summary_table(engine, fmt, flavor, tensors, order, orbits, max_rank):
    shape = engine.shape(fmt)
    assert shape.code_bound == tensors
    got_order = (large_group_order(shape) if flavor == "large"
                 else small_group_order(shape))
    assert got_order == order
    rows = engine.rows(fmt, flavor=flavor)
    assert len(rows) + 1 == orbits
    assert max(r.rank for r in rows) == max_rank
    ref = load_reference(fmt, flavor)
    assert (ref.tensors, ref.group_order, ref.orbit_count, ref.max_rank) == \
        (tensors, order, orbits, max_rank)


@pytest.mark.parametrize("fmt,flavor", ROW_TABLE_FORMATS)
def test_classification_rows(engine, fmt, flavor):
    ref = load_reference(fmt, flavor)
    rows = engine.rows(fmt, flavor=flavor)
    assert len(rows) == len(ref.rows)
    for row, (rank, size, bits) in zip(rows, ref.rows):
        assert (row.rank, row.size, row.canonical_bits) == (rank, size, bits)


@pytest.mark.parametrize("fmt,flavor", DISTRIBUTION_PAIRS)
def test_rank_distributions(engine, fmt, flavor):
    ref = load_reference(fmt, flavor)
    dist = engine.distribution(fmt, flavor=flavor)
    assert len(dist) == len(ref.distribution)
    for got, (rank, orbits, tensors, percent) in zip(dist, ref.distribution):
        assert (got.rank, got.orbits, got.tensors, got.percent) == \
            (rank, orbits, tensors, percent)
    if fmt == "6x2x2":
        assert dist[4].tensors == 13124160
        assert dist[4].percent == "78.2261"


def test_orbit_size_lists(engine):
    want5 = [279, 186, 2790, 2790, 16740, 1860, 8370, 156240, 234360, 624960]
    want6 = [567, 378, 11718, 11718, 70308, 7812, 35154, 1406160, 2109240,
             13124160]
    assert [r.size for r in engine.rows("5x2x2")] == want5
    assert [r.size for r in engine.rows("6x2x2")] == want6


def test_stable_forms_and_fractions(engine):
    from f2orbits.report import check_conjecture_p22
    want = {4: (20160, "0.3076"), 5: (624960, "0.5960"),
            6: (13124160, "0.7823")}
    for p in (4, 5, 6):
        fmt = f"{p}x2x2"
        rep = check_conjecture_p22(engine.shape(fmt), engine.rows(fmt))
        assert rep.ok, f"p={p}: canonical forms diverge"
        size, fs = want[p]
        assert rep.rank4_size == size
        assert rep.fraction_str == fs


def test_rank_oracle_agreement(engine):
    for fmt in ("2x2x2", "3x2x2"):
        shape = engine.shape(fmt)
        atlas = engine.atlas(fmt)
        ranks = engine.ranks(fmt)
        for code in range(1, shape.code_bound):
            assert brute_force_rank(shape, code) == \
                ranks.by_orbit[atlas.orbit_id(code)], f"{fmt} code {code}"


def test_structural_properties(engine):
    rng = np.random.default_rng(2024)

    for fmt, flavor, *_ in SUMMARY:
        shape = engine.shape(fmt)
        atlas = engine.atlas(fmt)
        ranks = engine.ranks(fmt)

        # the nonzero orbits partition the nonzero codes
        assert atlas.sizes[1:].sum() == shape.code_bound - 1

        # orbit sizes divide the group order
        order = small_group_order(shape)
        assert (order % atlas.sizes[1:] == 0).all()

        # flipping the lowest entry, a simple tensor, moves the rank by at
        # most one, and by one on some code: every code up to 2^18 of them
        cb = shape.code_bound
        if cb <= 1 << 18:
            codes = np.arange(cb, dtype=np.uint32)
        else:
            codes = rng.integers(0, cb, size=100000, dtype=np.uint32)
        by = ranks.by_orbit.astype(np.int16)
        delta = by[atlas.orbit_id(codes)] - by[atlas.orbit_id(codes ^ 1)]
        assert int(np.abs(delta).max()) == 1

        # the small distribution counts every code, the zero orbit alone
        # at rank 0
        rows = engine.distribution(fmt)
        assert sum(r.tensors for r in rows) == cb
        assert (rows[0].rank, rows[0].orbits, rows[0].tensors) == (0, 1, 1)


def test_large_orbit_merge_counts(engine):
    atlas = engine.atlas("3x3x3")
    large = engine.large("3x3x3")
    assert atlas.orbit_count == 115
    assert large.orbit_count == 55
    assert large.sizes[1:].sum() == (1 << 27) - 1

    atlas = engine.atlas("3x2x2x2")
    large = engine.large("3x2x2x2")
    assert atlas.orbit_count == 696
    assert large.orbit_count == 212
    assert large.sizes[1:].sum() == (1 << 24) - 1
