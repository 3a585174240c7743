"""Orbit enumeration, large-orbit merging, snapshots, the memory cap.

The orbit of one code is read off the session atlas as the codes that
share its orbit id; python_spin recomputes it from the definition.
"""

import io
import struct

import numpy as np
import pytest

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
    return np.flatnonzero(atlas.assignment == atlas.orbit_id(start))


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
    assert int(atlas.assignment[0]) == 0


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


def test_members_scan_every_block(engine):
    # 3x2x2x2 has 2^24 codes, 16 scan blocks
    atlas = engine.atlas("3x2x2x2")
    for oid in (0, 1, atlas.orbit_id(1 << 23), atlas.orbit_count):
        members = atlas.members(oid)
        assert members.tolist() == np.flatnonzero(atlas.assignment == oid).tolist()
        assert members.size == atlas.sizes[oid]
        assert members[0] == atlas.canonicals[oid]


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
    a = atlas.assignment
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
        for prog in compile_generators(s, per_mode_generators(s)):
            images = prog.apply_array(codes.copy())
            assert (atlas.assignment[images] == atlas.assignment).all()


def test_composites_match_per_mode_partition(engine, per_mode_generators):
    # the default composites against the 2n per-mode generators: the same
    # assignment table, canonicals and sizes, so also the same orbit ids
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2", "3x3x2"):
        s = engine.shape(fmt)
        composite = engine.atlas(fmt)
        assert len(generator_set(s)) < 2 * s.n
        per_mode = enumerate_orbits(s, compile_generators(s, per_mode_generators(s)))
        assert (per_mode.assignment == composite.assignment).all()
        assert (per_mode.canonicals == composite.canonicals).all()
        assert (per_mode.sizes == composite.sizes).all()


def test_enumeration_accepts_custom_generators():
    # identity-only generators: every nonzero code is its own orbit
    s = Shape((2, 2, 2))
    identity = Composite((identity_matrix(2),) * 3)
    atlas = enumerate_orbits(s, compile_generators(s, (identity,)))
    assert atlas.orbit_count == 255
    assert (atlas.sizes == 1).all()


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
    # enumerate_orbits budgets its own table, code_bound cells, and refuses
    # with exactly the estimate required_bytes reports
    s = Shape((3, 3, 2))
    need = s.code_bound * 2
    assert required_bytes(s) == need
    with pytest.raises(MemoryCapError) as exc:
        enumerate_orbits(s, mem_cap=need - 1)
    assert exc.value.required == need
    assert exc.value.cap == need - 1
    assert "F2TO_MEM_CAP" in str(exc.value)


def test_required_bytes_and_strategy():
    # one table of code_bound 2-byte cells, whatever the format
    for fmt in ((2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3)):
        s = Shape(fmt)
        assert required_bytes(s) == 2 * s.code_bound
    assert DEFAULT_MEM_CAP == 2 * 1024 ** 3


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
        direct = enumerate_orbits(s, progs)
        assert large.canonicals.tolist() == direct.canonicals.tolist()
        assert large.sizes.tolist() == direct.sizes.tolist()
        for oid, canonical in enumerate(atlas.canonicals.tolist()):
            assert large.grouping[oid] == direct.orbit_id(canonical)


# ---- snapshots ----

def test_snapshot_roundtrip(tmp_path, engine):
    atlas = engine.atlas("3x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    back = load_atlas(str(path))
    assert back.shape == atlas.shape
    assert (back.assignment == atlas.assignment).all()
    assert (back.canonicals == atlas.canonicals).all()
    assert (back.sizes == atlas.sizes).all()
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

    # cut inside the records, the cells, the dims and the fixed header
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
    with pytest.raises(ValueError):
        load_atlas(str(tmp_path / "s.snap"))


def test_snapshot_rejects_records_that_disagree_with_table(tmp_path, engine):
    # 2x2x2 records are (canonical, size) for ids 1..7, the last 84 bytes:
    # canonicals 1, 6, 18, 20, 22, 24, 107
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()
    records = len(blob) - 12 * atlas.orbit_count

    def with_canonicals(*pairs):
        out = bytearray(blob)
        for oid, canonical in pairs:
            struct.pack_into("<I", out, records + 12 * (oid - 1), canonical)
        return bytes(out)

    # each case passes every check but one: bit 0 of id 2's canonical
    # flipped (7 is in orbit 2, one above 6); id 3's canonical swapped for
    # its member 33, past id 4's 20; id 3's for 8, in orbit 1; 107 moved
    # past the code space
    for bad in (with_canonicals((2, 6 ^ 1)), with_canonicals((3, 33)),
                with_canonicals((3, 8)), with_canonicals((7, 256))):
        (tmp_path / "c.snap").write_bytes(bad)
        with pytest.raises(ValueError, match="canonicals disagree with the table"):
            load_atlas(str(tmp_path / "c.snap"))


def test_snapshot_shape_check(tmp_path, engine):
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("2x2x2"), str(path))
    with pytest.raises(ValueError):
        load_atlas(str(path), Shape((3, 2, 2)))
    ok = load_atlas(str(path), Shape((2, 2, 2)))
    assert ok.orbit_count == 7


def _old_writer_bytes(atlas):
    # the buffered writer save_atlas replaced, kept as the byte-layout oracle
    buf = io.BytesIO()
    buf.write(b"F2OA" + bytes([1, atlas.shape.n]) + bytes(atlas.shape.dims))
    buf.write(bytes([2]))
    buf.write(atlas.assignment[1:].astype("<u2").tobytes())
    buf.write(struct.pack("<I", atlas.orbit_count))
    for canonical, size in zip(atlas.canonicals[1:].tolist(), atlas.sizes[1:].tolist()):
        buf.write(struct.pack("<IQ", canonical, size))
    return buf.getvalue()


def test_snapshot_bytes_match_buffered_writer(tmp_path, engine):
    for fmt in ("2x2x2", "3x2x2"):
        path = tmp_path / f"{fmt}.snap"
        save_atlas(engine.atlas(fmt), str(path))
        assert path.read_bytes() == _old_writer_bytes(engine.atlas(fmt))
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
