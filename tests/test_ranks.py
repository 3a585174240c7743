"""Rank propagation, the brute-force oracle, and distributions."""

from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest
from conftest import traced_peaks
from entry_oracle import brute_force_rank
from hypothesis import example, given, settings
from hypothesis import strategies as st

from table_oracle import table_orbits

from f2orbits.group import compile_generators, identity_matrix
from f2orbits.orbits import LargeOrbitAtlas
from f2orbits.ranks import (DistributionRow, _orbit_adjacency, decimal_string,
                            enumerate_simple_tensors, large_orbit_ranks, percent_string,
                            propagate_ranks, rank_bytes)
from f2orbits.tensor import Shape


def test_seed_marks_single_orbit(engine):
    # the BFS from the zero orbit gives rank 1 to one orbit, that of every
    # simple tensor, and that orbit holds the simple tensors only
    for fmt, nsimples in (("2x2x2", 27), ("3x2x2", 63), ("3x3x2", 147)):
        shape, atlas = engine.shape(fmt), engine.atlas(fmt)
        ranks = propagate_ranks(shape, atlas)
        (oid,) = np.flatnonzero(ranks.by_orbit == 1)
        assert atlas.sizes[oid] == nsimples
        assert atlas.canonicals[oid] == 1
        simples = enumerate_simple_tensors(shape)
        assert len(simples) == nsimples
        assert (atlas.orbit_id(np.array(simples)) == oid).all()
        # row 0 of the id table, the zero orbit's neighbours, holds that one id
        assert set(_orbit_adjacency(atlas)[0].tolist()) == {oid}


# the most rank_bytes may exceed the traced peak of propagate_ranks, atlas
# included: 25 KB on 3x2x2x2, whose 697 orbits' 16 BFS bytes are counted
# beside the lookup, and about FIXED_BYTES elsewhere
RANK_SLACK = 26 << 10


def test_rank_bytes_bound_the_peak(engine, atlas_2x13):
    # rank_bytes counts the atlas by the size of its arrays, which exist
    # before ranking, so propagate_ranks' traced peak plus those bytes
    # stays under it, and within RANK_SLACK of it: on formats of many
    # orbits, and of many simple tensors and few orbits, as 13x2 and
    # 2x13, whose 11.2 M subspaces stay out of the session engine and
    # come from their shared fixture
    for fmt in ("2x2x2", "6x2x2", "13x2", "4x3x2", "3x3x2", "2x2x2x2", "3x2x2x2", "3x3x3",
                "2x13"):
        shape = engine.shape(fmt)
        atlas = atlas_2x13 if fmt == "2x13" else engine.atlas(fmt)
        propagate_ranks(shape, atlas)
        for peak in traced_peaks(lambda: propagate_ranks(shape, atlas)):
            peak += atlas.nbytes
            assert peak <= rank_bytes(atlas) <= peak + RANK_SLACK, (fmt, peak)


def test_seed_rejects_split_simples():
    # under identity-only generators the simple tensors do not form one
    # orbit, which propagate_ranks must notice before it ranks anything
    s = Shape((2, 2, 2))
    identity = (identity_matrix(2),) * 3
    atlas = table_orbits(s, compile_generators(s, (identity,)))
    with pytest.raises(RuntimeError, match="simple tensors fall into 27 orbits"):
        propagate_ranks(s, atlas)


def test_propagate_rejects_unreachable_orbit(engine):
    # an extra orbit that no canonical XOR simple tensor lands in is never
    # reached from the zero orbit
    atlas = engine.atlas("2x2x2")
    extra = replace(atlas, canonicals=np.append(atlas.canonicals, atlas.canonicals[-1]),
                    sizes=np.append(atlas.sizes, 0))
    with pytest.raises(RuntimeError, match="unreachable orbit"):
        propagate_ranks(extra.shape, extra)


def test_known_ranks_by_canonical(engine):
    atlas = engine.atlas("2x2x2")
    ranks = engine.ranks("2x2x2")
    want = {1: 1, 6: 2, 18: 2, 20: 2, 22: 3, 24: 2, 107: 3}
    for oid, canonical in enumerate(atlas.canonicals[1:].tolist(), start=1):
        assert int(ranks.by_orbit[oid]) == want[canonical]


def reference_adjacency(atlas):
    # orbit adjacency sets of every orbit, the zero orbit included, built
    # one code pair (2k, 2k+1) at a time: code 1 is simple, so pair (0, 1)
    # joins the zero orbit to the rank-1 orbit
    a = atlas.orbit_id(np.arange(atlas.shape.code_bound)).tolist()
    adj = [set() for _ in range(atlas.orbit_count + 1)]
    for code in range(0, len(a), 2):
        adj[a[code]].add(a[code + 1])
        adj[a[code + 1]].add(a[code])
    return adj


def reference_orbit_ranks(adj):
    # plain Python BFS over the adjacency sets from the zero orbit; an
    # unreached orbit keeps None
    by_orbit = [None] * len(adj)
    by_orbit[0] = 0
    frontier = [0]
    rank = 0
    while frontier:
        rank += 1
        grown = []
        for oid in frontier:
            for other in adj[oid]:
                if by_orbit[other] is None:
                    by_orbit[other] = rank
                    grown.append(other)
        frontier = grown
    return by_orbit


def test_propagated_ranks_match_set_bfs(engine):
    for fmt in ("2x2x2", "3x2x2", "4x2x2", "2x2x2x2", "3x3x2"):
        atlas = engine.atlas(fmt)
        adj = reference_adjacency(atlas)
        ids = _orbit_adjacency(atlas)
        assert ids.dtype == np.uint16
        assert {(i, j) for i, row in enumerate(ids.tolist()) for j in row} == \
            {(i, j) for i, row in enumerate(adj) for j in row}
        assert adj[0] == {atlas.orbit_id(1)}
        assert engine.ranks(fmt).by_orbit.tolist() == reference_orbit_ranks(adj)


def test_brute_force_matches_propagated_everywhere(engine):
    s = engine.shape("2x2x2")
    atlas = engine.atlas("2x2x2")
    ranks = engine.ranks("2x2x2")
    for code in range(1, 256):
        assert brute_force_rank(s, code) == ranks.by_orbit[atlas.orbit_id(code)]


def test_brute_force_basics():
    s = Shape((2, 2, 2))
    assert brute_force_rank(s, 0) == 0
    assert brute_force_rank(s, 107) == 3
    assert brute_force_rank(s, 107, max_r=2) is None
    for code in enumerate_simple_tensors(s):
        assert brute_force_rank(s, code, max_r=1) == 1
    with pytest.raises(ValueError):
        brute_force_rank(s, 256)
    with pytest.raises(ValueError):
        brute_force_rank(s, -1)


def test_perturbation_changes_rank_by_at_most_one(engine):
    # adding the fixed simple tensor (code 1) moves rank at most one step
    for fmt in ("2x2x2", "3x2x2", "4x2x2", "3x3x2"):
        atlas = engine.atlas(fmt)
        by = engine.ranks(fmt).by_orbit.astype(np.int16)
        cb = engine.shape(fmt).code_bound
        codes = np.arange(cb, dtype=np.uint32)
        r = by[atlas.orbit_id(codes)]
        rflip = by[atlas.orbit_id(codes ^ 1)]
        assert int(np.abs(r - rflip).max()) == 1


def test_max_ranks(engine):
    assert engine.ranks("2x2x2").max_rank == 3
    assert engine.ranks("3x2x2").max_rank == 3
    assert engine.ranks("4x2x2").max_rank == 4
    assert engine.ranks("3x3x2").max_rank == 5
    assert engine.ranks("2x2x2x2").max_rank == 6


def test_distribution_known_values(engine):
    rows = engine.distribution("2x2x2")
    assert rows == [
        DistributionRow(0, 1, 1, "0.3906"),
        DistributionRow(1, 1, 27, "10.5469"),
        DistributionRow(2, 4, 162, "63.2813"),
        DistributionRow(3, 2, 66, "25.7813"),
    ]


def test_distribution_sums_to_code_bound(engine):
    for fmt in ("2x2x2", "3x2x2", "4x2x2", "3x3x2", "2x2x2x2"):
        rows = engine.distribution(fmt)
        assert sum(r.tensors for r in rows) == engine.shape(fmt).code_bound
        assert rows[0] == DistributionRow(0, 1, 1, rows[0].percent)


def test_distribution_with_large_orbits(engine):
    rows = engine.distribution("2x2x2", flavor="large")
    assert [(r.rank, r.orbits, r.tensors) for r in rows] == [
        (0, 1, 1), (1, 1, 27), (2, 2, 162), (3, 2, 66)]
    # tensor counts and percents equal the small-group ones
    small = engine.distribution("2x2x2")
    assert [(r.tensors, r.percent) for r in rows] == \
        [(r.tensors, r.percent) for r in small]


def test_large_orbit_ranks_agree(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2"):
        large = engine.large(fmt)
        by_large = engine.large_ranks(fmt)
        ranks = engine.ranks(fmt)
        assert by_large.size == large.orbit_count + 1
        for small_id, large_id in enumerate(large.grouping.tolist()):
            assert by_large[large_id] == ranks.by_orbit[small_id]


def test_large_orbit_ranks_reject_mixed_ranks(engine):
    atlas = engine.atlas("2x2x2")
    ranks = engine.ranks("2x2x2")
    # canonical 1 has rank 1 and canonical 107 rank 3; a grouping that
    # glues their orbits into one large orbit, every other orbit on its
    # own, must fail
    id_a = atlas.orbit_id(1)
    id_b = atlas.orbit_id(107)
    grouping = np.arange(atlas.orbit_count + 1, dtype=np.uint32)
    grouping[id_b] = id_a
    fake = LargeOrbitAtlas(atlas.shape, grouping, atlas.canonicals, atlas.sizes)
    with pytest.raises(RuntimeError, match=rf"large orbits \[{id_a}\] mix ranks"):
        large_orbit_ranks(fake, ranks)


def test_percent_rendering():
    assert percent_string(162, 256) == "63.2813"    # exact half rounds up
    assert percent_string(66, 256) == "25.7813"
    assert percent_string(1, 256) == "0.3906"
    assert percent_string(1, 1 << 27) == "0.0000"
    assert percent_string(13124160, 1 << 24) == "78.2261"
    assert percent_string(83670048, 1 << 27) == "62.3390"
    assert percent_string(0, 256) == "0.0000"
    assert percent_string(256, 256) == "100.0000"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(denominator=st.integers(1, 1 << 40), data=st.data())
@example(denominator=256, data=None)
@example(denominator=20000, data=None)
def test_decimal_string_matches_decimal_quantize(denominator, data):
    # integer half-up rounding against Decimal's ROUND_HALF_UP: the
    # examples step through numerators up to 100 d by an odd stride, which
    # meets exact halves (n / d = x.xxxx5 for odd n when d = 20000), and
    # the drawn cases take arbitrary numerators up to 100 d
    if data is None:
        numerators = range(0, 100 * denominator + 1, denominator // 256 | 1)
    else:
        numerators = [data.draw(st.integers(0, 100 * denominator), label="n")]
    for numerator in numerators:
        with localcontext() as ctx:
            ctx.prec = 80
            q = Decimal(numerator) / Decimal(denominator)
            expected = str(q.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))
        assert decimal_string(numerator, denominator) == expected, (numerator, denominator)
