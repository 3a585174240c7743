"""Orbit enumeration, large-orbit merging, snapshots, the memory cap.

The orbit of one code is read off the session atlas as the codes that
share its orbit id; python_spin recomputes it from the definition, and
table_oracle.table_orbits, the 2^N table engine, recomputes whole
partitions.
"""

import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from table_oracle import table_orbits

from f2orbits.group import (Composite, block_permutations, compile_generators,
                            generator_set, identity_matrix, small_group_order,
                            transpose_program)
from f2orbits.orbits import (DEFAULT_MEM_CAP, MemoryCapError, enumerate_orbits,
                             load_atlas, merge_large_orbits, required_bytes,
                             save_atlas)
from f2orbits.report import NoReferenceError, load_reference
from f2orbits.tensor import Shape, get_entry, index_of


def reference_apply(shape, composite, code):
    # per-entry oracle, shared logic with nothing in the compiled path:
    # substitute along each mode in turn
    for k, mat in enumerate(composite.matrices):
        out = 0
        for p in range(shape.entry_count):
            idx = index_of(shape, p)
            bit = 0
            for j in range(1, shape.dims[k] + 1):
                src = idx[:k] + (j,) + idx[k + 1:]
                bit ^= mat.entry(j, idx[k]) & get_entry(shape, code, src)
            if bit:
                out |= 1 << (shape.entry_count - 1 - p)
        code = out
    return code


def python_spin(shape, start, composites):
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for c in frontier:
            for a in composites:
                img = reference_apply(shape, a, c)
                if img not in seen:
                    seen.add(img)
                    grown.append(img)
        frontier = grown
    return seen


# ---- single orbits ----

def orbit_of(atlas, start):
    codes = np.arange(atlas.shape.code_bound)
    return codes[atlas.orbit_id(codes) == atlas.orbit_id(start)]


def gaussian_binomial(m, k):
    # subspace counts by the q-Pascal rule [m, k] = [m-1, k-1] + 2^k [m-1, k]
    if k == 0 or k == m:
        return 1
    if not 0 < k < m:
        return 0
    return gaussian_binomial(m - 1, k - 1) + (1 << k) * gaussian_binomial(m - 1, k)


def slice_subspaces(dims):
    # S: the subspaces of F2^M, M = N / d1, of dimension at most min(d1, M)
    m = int(np.prod(dims[1:]))
    return sum(gaussian_binomial(m, k) for k in range(min(dims[0], m) + 1))


def test_spin_known_sizes(engine):
    atlas = engine.atlas("2x2x2")
    assert orbit_of(atlas, 1).size == 27
    assert orbit_of(atlas, 24).size == 108
    assert orbit_of(atlas, 107).size == 12


def test_spin_matches_python_bfs(engine, per_mode_generators):
    s = Shape((2, 2, 2))
    atlas = engine.atlas("2x2x2")
    for start in (1, 6, 18, 24, 107, 255):
        assert set(orbit_of(atlas, start).tolist()) == \
            python_spin(s, start, per_mode_generators(s))


def test_spin_output_sorted_contains_start(engine):
    atlas = engine.atlas("3x2x2")
    for start in (1, 77, 4095):
        orb = orbit_of(atlas, start)
        assert (np.diff(orb) > 0).all()
        assert start in orb
        assert 0 not in orb
        assert orb.size == atlas.sizes[atlas.orbit_id(start)]


def test_spin_closed_under_generators(engine, per_mode_generators):
    s = Shape((2, 2, 2, 2))
    members = set(orbit_of(engine.atlas("2x2x2x2"), 361).tolist())
    for prog in compile_generators(s, per_mode_generators(s)):
        assert {prog(c) for c in members} == members


def test_spin_rejects_zero(engine):
    # the zero code is orbit 0 on its own: slot 0 of the per-orbit arrays
    atlas = engine.atlas("2x2x2")
    assert orbit_of(atlas, 0).tolist() == [0]
    assert (atlas.canonicals[0], atlas.sizes[0]) == (0, 1)
    with pytest.raises(ValueError):
        atlas.orbit_id(256)


# ---- full enumeration ----

def test_orbit_counts_small_formats(engine):
    assert engine.atlas("2x2x2").orbit_count == 7
    assert engine.atlas("3x2x2").orbit_count == 9
    assert engine.atlas("3x3x2").orbit_count == 20


def test_zero_code_is_orbit_zero(engine):
    atlas = engine.atlas("2x2x2")
    assert atlas.orbit_id(0) == 0
    # the zero subspace, key 0, comes first
    assert (int(atlas.keys[0]), int(atlas.assignment[0])) == (0, 0)


def test_orbit_id_takes_arrays(engine):
    atlas = engine.atlas("3x2x2")
    codes = np.arange(atlas.shape.code_bound).reshape(64, 64)
    ids = atlas.orbit_id(codes)
    assert ids.shape == codes.shape
    assert ids.tolist() == [[atlas.orbit_id(c) for c in row] for row in codes.tolist()]
    assert type(atlas.orbit_id(77)) is int
    for bad in (atlas.shape.code_bound, -1):
        with pytest.raises(ValueError, match="out of range"):
            atlas.orbit_id(np.array([1, bad, 2]))


def test_members_are_the_orbit(engine):
    # every orbit of 2x2x2x2 against the codes the table oracle puts in it
    oracle = table_orbits(Shape((2, 2, 2, 2)))
    atlas = engine.atlas("2x2x2x2")
    for oid in range(atlas.orbit_count + 1):
        assert atlas.members(oid).tolist() == \
            np.flatnonzero(oracle.assignment == oid).tolist()
    # on 3x2x2x2, 2^24 codes: sorted, the right size, starting at the
    # canonical, and every member in the orbit
    atlas = engine.atlas("3x2x2x2")
    for oid in (0, 1, atlas.orbit_id(1 << 23), atlas.orbit_count):
        members = atlas.members(oid)
        assert members.dtype == np.uint32
        assert (np.diff(members.astype(np.int64)) > 0).all()
        assert members.size == atlas.sizes[oid]
        assert members[0] == atlas.canonicals[oid]
        assert (atlas.orbit_id(members) == oid).all()


def test_orbit_partition_sums(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2", "3x3x2"):
        atlas = engine.atlas(fmt)
        assert atlas.sizes[1:].sum() == engine.shape(fmt).code_bound - 1


def test_orbit_sizes_divide_group_order(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2", "3x3x2"):
        order = small_group_order(engine.shape(fmt))
        for size in engine.atlas(fmt).sizes[1:].tolist():
            assert order % size == 0


def test_orbit_ids_follow_canonical_order(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2"):
        atlas = engine.atlas(fmt)
        canons = atlas.canonicals.tolist()
        assert canons == sorted(canons)
        for oid, canonical in enumerate(canons):
            assert atlas.orbit_id(canonical) == oid


def test_canonical_is_orbit_minimum(engine):
    atlas = engine.atlas("3x2x2")
    a = atlas.orbit_id(np.arange(atlas.shape.code_bound))
    for oid in range(atlas.orbit_count + 1):
        members = np.flatnonzero(a == oid)
        assert members.size == atlas.sizes[oid]
        assert int(members.min()) == atlas.canonicals[oid]


def test_generator_closure_preserves_ids_exhaustive(engine, per_mode_generators):
    # every code and every per-mode generator, all formats up to 16 entries
    for fmt in ("2x2x2", "3x2x2", "4x2x2", "2x2x2x2"):
        s = engine.shape(fmt)
        atlas = engine.atlas(fmt)
        codes = np.arange(s.code_bound, dtype=np.uint32)
        ids = atlas.orbit_id(codes)
        for prog in compile_generators(s, per_mode_generators(s)):
            images = prog.apply_array(codes.copy())
            assert (atlas.orbit_id(images) == ids).all()


def test_composites_match_per_mode_partition(engine, per_mode_generators):
    # the slice engine on the default composites against the table oracle
    # on the 2n per-mode generators: the same orbit id for every code, the
    # same canonicals and sizes
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2", "3x3x2"):
        s = engine.shape(fmt)
        composite = engine.atlas(fmt)
        assert len(generator_set(s)) < 2 * s.n
        per_mode = table_orbits(s, compile_generators(s, per_mode_generators(s)))
        assert (per_mode.assignment == composite.orbit_id(np.arange(s.code_bound))).all()
        assert (per_mode.canonicals == composite.canonicals).all()
        assert (per_mode.sizes == composite.sizes).all()


def test_enumeration_accepts_custom_generators():
    # the table oracle takes any programs; under identity-only generators
    # every nonzero code is its own orbit
    s = Shape((2, 2, 2))
    identity = Composite((identity_matrix(2),) * 3)
    atlas = table_orbits(s, compile_generators(s, (identity,)))
    assert atlas.orbit_count == 255
    assert (atlas.sizes == 1).all()
    with pytest.raises(ValueError, match="at most"):
        table_orbits(Shape((4, 3, 2)))


def test_slice_engine_matches_table_oracle(accepted_formats):
    """Every accepted format of at most 16 entries, in every mode order,
    two-mode formats included: the subspace count is the sum of Gaussian
    binomials, and the canonicals, sizes and the orbit id of every code
    equal the table engine's."""
    checked = 0
    for dims in accepted_formats:
        s = Shape(dims)
        if s.entry_count > 16:
            continue
        atlas = enumerate_orbits(s)
        oracle = table_orbits(s)
        assert atlas.keys.size == slice_subspaces(dims), dims
        assert atlas.canonicals.tolist() == oracle.canonicals.tolist(), dims
        assert atlas.sizes.tolist() == oracle.sizes.tolist(), dims
        assert (atlas.orbit_id(np.arange(s.code_bound)) == oracle.assignment).all(), dims
        checked += 1
    assert checked == 27


def test_orbit_counts_fit_the_cell(engine, accepted_formats):
    """Every accepted format has at most 65534 nonzero orbits, so orbit ids
    fit a 2-byte cell below the sentinel 65535.

    Permuting the modes of a format permutes the group's factors, so the
    orbit count depends only on the sorted dims.  With three or more modes
    the sorted format is one of the reference formats, whose small-group
    orbit count is stored, or 2x2x2x2, which the session engine enumerates.
    The large group only merges small orbits.

    A two-mode format d1 x d2 is the space of d1 x d2 matrices, on which
    GL(d1,2) x GL(d2,2) acts by X -> A^T X B.  Two matrices are in one
    orbit exactly when they have the same rank, so there are
    min(d1, d2) + 1 orbits with zero, at most 6 up to 27 entries.  The
    formats up to 16 entries are enumerated to check it."""
    seen = set()
    for dims in accepted_formats:
        key = "x".join(map(str, sorted(dims, reverse=True)))
        if key in seen:
            continue
        seen.add(key)
        if len(dims) == 2:
            if dims[0] * dims[1] <= 16:
                assert engine.atlas(key).orbit_count == min(dims)
            continue
        try:
            count = load_reference(key, "small").orbit_count - 1
        except NoReferenceError:
            assert key == "2x2x2x2"
            count = engine.atlas(key).orbit_count
        assert count < 65535, key
    assert len(seen) == 33
    assert sorted(k for k in seen if k.count("x") > 1) == [
        "2x2x2", "2x2x2x2", "3x2x2", "3x2x2x2", "3x3x2", "3x3x3",
        "4x2x2", "4x3x2", "5x2x2", "6x2x2"]


def test_cell_width_four_is_refused(tmp_path, engine):
    s = Shape((2, 2, 2))
    with pytest.raises(ValueError):
        enumerate_orbits(s, cell_width=4)
    assert engine.atlas("2x2x2").assignment.dtype == np.uint16
    # a snapshot whose header claims 4-byte cells is malformed
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("2x2x2"), str(path))
    blob = bytearray(path.read_bytes())
    width_at = 6 + s.n
    assert blob[width_at] == 2
    blob[width_at] = 4
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="cell width 4"):
        load_atlas(str(path))


# ---- memory cap ----

def test_memory_cap_refusal():
    # enumerate_orbits refuses with exactly the estimate required_bytes
    # reports, before it allocates
    s = Shape((3, 3, 2))
    need = required_bytes(s)
    with pytest.raises(MemoryCapError) as exc:
        enumerate_orbits(s, mem_cap=need - 1)
    assert exc.value.required == need
    assert exc.value.cap == need - 1
    assert "F2TO_MEM_CAP" in str(exc.value)


def test_required_bytes_and_strategy(accepted_formats):
    """required_bytes on every accepted format, without enumerating: per
    subspace a uint32 key, a uint16 id, a uint32 queue cell and one
    uint32 permutation per composite; m + 1 tables of 2^M uint32; and
    16 + 20 k bytes per item of one chunk of at most 2^14 items, k =
    min(d1, M).  S comes from the q-Pascal rule."""
    for dims in accepted_formats:
        s = Shape(dims)
        m, S = len(generator_set(s)), slice_subspaces(dims)
        slice_bits = s.entry_count // dims[0]
        k = min(dims[0], slice_bits)
        assert required_bytes(s) == ((10 + 4 * m) * S + 4 * (m + 1) * (1 << slice_bits)
                                     + (16 + 20 * k) * min(S, 1 << 14)), dims
    assert len(accepted_formats) == 70
    # the paper's largest formats need a small part of the old 2^N table
    assert required_bytes(Shape((3, 3, 3))) < 0.07 * 2 * (1 << 27)
    assert required_bytes(Shape((3, 2, 2, 2))) < 0.11 * 2 * (1 << 24)
    assert DEFAULT_MEM_CAP == 2 * 1024 ** 3


def test_enumeration_peak_within_required_bytes():
    # tracemalloc's peak over a cold enumeration stays under required_bytes
    # plus a fixed slack for Python objects
    for dims in ((3, 2, 2, 2), (2, 2, 2, 2), (3, 3, 2)):
        s = Shape(dims)
        tracemalloc.start()
        try:
            enumerate_orbits(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= required_bytes(s) + (64 << 10), dims


# ---- large orbits ----

def test_merge_known_example(engine):
    atlas = engine.atlas("2x2x2")
    large = merge_large_orbits(engine.shape("2x2x2"), atlas)
    assert large.orbit_count == 5
    (fused_id,) = np.flatnonzero(large.canonicals == 6)
    assert large.sizes[fused_id] == 54
    ids = np.flatnonzero(large.grouping == fused_id)
    assert sorted(atlas.canonicals[ids].tolist()) == [6, 18, 20]


def test_merge_grouping_invariants(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2"):
        atlas = engine.atlas(fmt)
        large = engine.large(fmt)
        assert large.grouping.shape == (atlas.orbit_count + 1,)
        assert large.grouping[0] == 0
        # every large id 1..count owns at least one small orbit
        assert sorted(set(large.grouping[1:].tolist())) == \
            list(range(1, large.orbit_count + 1))
        for large_id in range(1, large.orbit_count + 1):
            cons = np.flatnonzero(large.grouping == large_id)
            assert large.canonicals[large_id] == atlas.canonicals[cons].min()
            assert large.sizes[large_id] == atlas.sizes[cons].sum()
        assert large.canonicals.tolist() == sorted(large.canonicals.tolist())
        assert (large.canonicals[0], large.sizes[0]) == (0, 1)
        assert large.sizes[1:].sum() == atlas.shape.code_bound - 1


def test_merge_with_no_equal_dims_is_identity(engine):
    atlas = engine.atlas("4x3x2")
    large = merge_large_orbits(engine.shape("4x3x2"), atlas)
    assert large.orbit_count == atlas.orbit_count
    assert large.canonicals.tolist() == atlas.canonicals.tolist()


def test_merge_matches_direct_enumeration(per_mode_generators):
    # oracle: enumerate under the per-mode generators plus the
    # mode-permutation programs and compare canonical/size multisets; the
    # direct ids also ascend with the canonical code, so the grouping
    # must send each small orbit to the direct id of its canonical
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2)):
        s = Shape(dims)
        atlas = enumerate_orbits(s)
        large = merge_large_orbits(s, atlas)
        progs = compile_generators(s, per_mode_generators(s))
        progs += tuple(transpose_program(s, p) for p in block_permutations(s)[1:])
        direct = table_orbits(s, progs)
        assert large.canonicals.tolist() == direct.canonicals.tolist()
        assert large.sizes.tolist() == direct.sizes.tolist()
        for oid, canonical in enumerate(atlas.canonicals.tolist()):
            assert large.grouping[oid] == direct.orbit_id(canonical)




# ---- snapshots ----

def reseal(blob):
    # a snapshot ends in the CRC-32 of everything before it
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_snapshot_roundtrip(tmp_path, engine):
    atlas = engine.atlas("3x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    back = load_atlas(str(path))
    assert back.shape == atlas.shape
    assert (back.keys == atlas.keys).all()
    assert (back.assignment == atlas.assignment).all()
    assert (back.canonicals == atlas.canonicals).all()
    assert (back.sizes == atlas.sizes).all()
    assert (back.keys.dtype, back.assignment.dtype) == (np.uint32, np.uint16)
    assert (back.canonicals.dtype, back.sizes.dtype) == (np.uint32, np.int64)


def test_snapshot_rejects_corruption(tmp_path, engine):
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()

    bad_magic = b"XXXX" + blob[4:]
    (tmp_path / "m.snap").write_bytes(bad_magic)
    with pytest.raises(ValueError):
        load_atlas(str(tmp_path / "m.snap"))

    # cut inside the CRC, the keys, the dims and the fixed header
    for cut in (len(blob) - 3, 100, 8, 5):
        (tmp_path / "t.snap").write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            load_atlas(str(tmp_path / "t.snap"))

    (tmp_path / "x.snap").write_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        load_atlas(str(tmp_path / "x.snap"))

    # corrupt one record size so the partition no longer sums
    size_field = blob.rfind((27).to_bytes(8, "little"))
    assert size_field != -1
    mangled = blob[:size_field] + (28).to_bytes(8, "little") + blob[size_field + 8:]
    (tmp_path / "s.snap").write_bytes(mangled)
    with pytest.raises(ValueError, match="CRC"):
        load_atlas(str(tmp_path / "s.snap"))
    (tmp_path / "s.snap").write_bytes(reseal(mangled))
    with pytest.raises(ValueError, match="sizes disagree"):
        load_atlas(str(tmp_path / "s.snap"))

    # the table engine's format version 1 is refused by name
    (tmp_path / "v.snap").write_bytes(blob[:4] + bytes([1]) + blob[5:])
    with pytest.raises(ValueError, match="unsupported snapshot version 1"):
        load_atlas(str(tmp_path / "v.snap"))


def test_snapshot_rejects_records_that_disagree_with_table(tmp_path, engine):
    # 2x2x2 records are (canonical, size) for ids 1..7, the 84 bytes before
    # the CRC: canonicals 1, 6, 18, 20, 22, 24, 107
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()
    records = len(blob) - 4 - 12 * atlas.orbit_count

    def with_canonicals(*pairs):
        out = bytearray(blob)
        for oid, canonical in pairs:
            struct.pack_into("<I", out, records + 12 * (oid - 1), canonical)
        return reseal(bytes(out))

    # each case, CRC resealed, passes every check but one: bit 0 of id 2's
    # canonical flipped (7 spans a subspace of orbit 2 whose key it is,
    # but 6 lies just below in the same orbit); 107 rewritten to 109, in
    # orbit 7 with 108 in a lower orbit, but the key of span(6, 13) is 107;
    # id 3's canonical swapped for 8, the key of a subspace in orbit 1;
    # 107 moved past the code space
    for bad in (with_canonicals((2, 6 ^ 1)), with_canonicals((7, 109)),
                with_canonicals((3, 8)), with_canonicals((7, 256))):
        (tmp_path / "c.snap").write_bytes(bad)
        with pytest.raises(ValueError, match="canonicals disagree with the keys and ids"):
            load_atlas(str(tmp_path / "c.snap"))


def test_snapshot_rejects_inconsistent_subspaces(tmp_path, engine):
    # 2x2x2: 10 header bytes, S = 51, then 51 keys and 51 ids; each edit
    # is resealed, so it reaches the check it breaks
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()
    keys_at, ids_at = 14, 14 + 4 * 51
    assert struct.unpack_from("<I", blob, 10) == (51,)

    def edited(at, fmt, value):
        out = bytearray(blob)
        struct.pack_into(fmt, out, at, value)
        return reseal(bytes(out))

    # 0x40, slices (4, 0), lies between keys 33 and 35 but is no
    # subspace's key, so a rewrite of key 34 to it keeps the keys ascending
    assert atlas.keys[33:36].tolist() == [0x3c, 0x3d, 0x48]
    last_key = struct.unpack_from("<I", blob, ids_at - 4)[0]
    cases = [
        (edited(10, "<I", 50), "lists 50 subspaces"),
        (edited(keys_at + 4, "<I", last_key + 1), "keys are not the subspaces"),
        (edited(keys_at + 4 * 34, "<I", 0x40), "keys are not the subspaces"),
        (edited(ids_at + 2 * 50, "<H", 8), "orbit id past"),
        (edited(ids_at + 2 * 50, "<H", 1), "sizes disagree"),
    ]
    for bad, message in cases:
        (tmp_path / "k.snap").write_bytes(bad)
        with pytest.raises(ValueError, match=message):
            load_atlas(str(tmp_path / "k.snap"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_snapshot_damage_is_refused(tmp_path_factory, data):
    # any truncation, and any single flipped bit, ends in ValueError
    s = Shape((2, 2, 2))
    path = tmp_path_factory.mktemp("snap") / "orbits.snap"
    save_atlas(enumerate_orbits(s), str(path))
    blob = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        load_atlas(str(path), s)


def test_snapshot_shape_check(tmp_path, engine):
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("2x2x2"), str(path))
    with pytest.raises(ValueError):
        load_atlas(str(path), Shape((3, 2, 2)))
    ok = load_atlas(str(path), Shape((2, 2, 2)))
    assert ok.orbit_count == 7


def _buffered_writer_bytes(atlas):
    # the snapshot layout written field by field, the byte-layout oracle
    buf = io.BytesIO()
    buf.write(b"F2OA" + bytes([2, atlas.shape.n]) + bytes(atlas.shape.dims))
    buf.write(bytes([2]))
    buf.write(struct.pack("<I", atlas.keys.size))
    for key in atlas.keys.tolist():
        buf.write(struct.pack("<I", key))
    for oid in atlas.assignment.tolist():
        buf.write(struct.pack("<H", oid))
    buf.write(struct.pack("<I", atlas.orbit_count))
    for canonical, size in zip(atlas.canonicals[1:].tolist(), atlas.sizes[1:].tolist()):
        buf.write(struct.pack("<IQ", canonical, size))
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    return buf.getvalue()


def test_snapshot_bytes_match_buffered_writer(tmp_path, engine):
    for fmt in ("2x2x2", "3x2x2"):
        path = tmp_path / f"{fmt}.snap"
        save_atlas(engine.atlas(fmt), str(path))
        assert path.read_bytes() == _buffered_writer_bytes(engine.atlas(fmt))
    # the temporary file is renamed over the target, none is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["2x2x2.snap", "3x2x2.snap"]


def test_snapshot_load_honours_cap(tmp_path, engine):
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("3x2x2"), str(path))
    s = Shape((3, 2, 2))
    with pytest.raises(MemoryCapError) as exc:
        load_atlas(str(path), mem_cap=required_bytes(s) - 1)
    assert exc.value.required == required_bytes(s)
    assert load_atlas(str(path), mem_cap=required_bytes(s)).orbit_count == 9
