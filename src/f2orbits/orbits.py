"""Orbit computation over the full code space.

The assignment table is the central object: one 2-byte cell per code,
holding the orbit id.  During enumeration it doubles as the visited
structure (cells start at the sentinel 65535).  Two bytes always suffice:
no format up to MAX_ENTRIES entries has more than 696 nonzero orbits
(tests/test_orbits.py::test_orbit_counts_fit_the_cell sweeps them all).
The scan visits codes in ascending order and spins each unassigned code
into a new orbit, so orbit ids 1, 2, ... increase with the orbit's
minimal element.  Code 0 is the zero tensor, always orbit id 0.

Spinning is breadth first over compiled programs, by default the few
fused composites of group.generator_set, so each code costs one table
gather per composite.  The programs are bijections, so a duplicate-free
frontier has duplicate-free images, and marking cells between programs
filters overlap without any sorting.

A snapshot (format version 1) is a small header, the cells of codes
1..2^N-1 in little-endian order, then the orbit count and one (canonical,
size) record per nonzero orbit.  Saving streams the cells straight from
the table into a temporary file that replaces the target only once
complete; loading checks the memory cap, reads the cells into the one
table it allocates, and checks each record's canonical against the table.
"""

import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .group import (block_permutations, compile_generators, generator_set,
                    transpose_program)
from .tensor import Shape

DEFAULT_MEM_CAP = 2 * 1024 ** 3

_SNAPSHOT_MAGIC = b"F2OA"
_SNAPSHOT_VERSION = 1
_CELL = np.dtype(np.uint16)
_SENTINEL = int(np.iinfo(_CELL).max)
_RECORD = np.dtype([("canonical", "<u4"), ("size", "<u8")])

# images are computed per chunk of the frontier; the frontier is not chunked
_SPIN_CHUNK = 1 << 22
_SCAN_BLOCK = 1 << 20


class MemoryCapError(RuntimeError):
    """A run was refused because its tables would exceed the memory cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"tables need {required} bytes but the cap is {cap} bytes; "
            f"raise --mem-cap or F2TO_MEM_CAP to allow this")


@dataclass(frozen=True)
class OrbitAtlas:
    """Complete orbit partition: assignment[code] = orbit id, and for each
    orbit id its least code canonicals[id] (uint32) and its size sizes[id]
    (int64); slot 0 is the zero orbit, canonical 0 and size 1.  Code
    outside this module reads the table through orbit_id and members only."""

    shape: Shape
    assignment: np.ndarray
    canonicals: np.ndarray
    sizes: np.ndarray

    @property
    def orbit_count(self) -> int:
        """Number of nonzero orbits."""
        return self.canonicals.size - 1

    def orbit_id(self, codes):
        """The orbit id of an int code, or an array of ids for an integer
        array of codes.  ValueError if any code is out of range."""
        codes = np.asarray(codes)
        bad = (codes < 0) | (codes >= self.shape.code_bound)
        if bad.any():
            raise ValueError(f"code {codes[bad].flat[0]} out of range for {self.shape}")
        ids = self.assignment[codes]
        return int(ids) if codes.ndim == 0 else ids

    def members(self, orbit_id: int) -> np.ndarray:
        """The codes of orbit orbit_id in ascending order, one table scan."""
        return np.concatenate([
            np.flatnonzero(self.assignment[lo:lo + _SCAN_BLOCK] == orbit_id) + lo
            for lo in range(0, self.assignment.size, _SCAN_BLOCK)])


def required_bytes(shape: Shape) -> int:
    """Size of the long-lived table a classify run allocates: one 2-byte
    cell per code.  The cap covers this table only, not the transient
    spin buffers: each frontier is built whole by np.concatenate, and a
    3x3x3 enumeration allocates about 292 MB in all (tracemalloc)
    against its 256 MiB table."""
    return shape.code_bound * _CELL.itemsize


# ---- spinning ----

def _spin_into(assignment, orbit_id, start, programs):
    """Mark the orbit of start with orbit_id; returns the orbit size."""
    assignment[start] = orbit_id
    frontier = np.array([start], dtype=np.intp)
    size = 1
    while frontier.size:
        grown = []
        for prog in programs:
            for lo in range(0, frontier.size, _SPIN_CHUNK):
                img = prog.apply_array(frontier[lo:lo + _SPIN_CHUNK])
                fresh = img[assignment[img] == _SENTINEL]
                if fresh.size:
                    assignment[fresh] = orbit_id
                    grown.append(fresh)
        frontier = np.concatenate(grown) if grown else np.empty(0, np.intp)
        size += int(frontier.size)
    return size


def _allocate_table(shape, mem_cap):
    """The uninitialised table of code_bound cells with cell 0, the zero
    orbit, set to 0; refused with MemoryCapError before allocating if
    required_bytes exceeds mem_cap."""
    need = required_bytes(shape)
    if need > mem_cap:
        raise MemoryCapError(need, mem_cap)
    table = np.empty(shape.code_bound, _CELL)
    table[0] = 0
    return table


def _next_unassigned(assignment, pos):
    cb = assignment.size
    while pos < cb:
        hi = min(pos + _SCAN_BLOCK, cb)
        hits = assignment[pos:hi] == _SENTINEL
        i = int(hits.argmax())
        if hits[i]:
            return pos + i
        pos = hi
    return -1


def enumerate_orbits(shape: Shape, programs=None, *, cell_width: int = 2,
                     mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Partition the full nonzero code space into the orbits of the group
    that programs, compiled bijections on codes, generate.  They default
    to the composites of generator_set; callers may pass others, for
    example with mode permutations added, to enumerate a larger group.

    cell_width accepts only 2; benchmark/layers.py passes it, and it can
    go once that script stops doing so."""
    if cell_width != 2:
        raise ValueError(f"cell_width must be 2, got {cell_width}")
    if programs is None:
        programs = compile_generators(shape, generator_set(shape))
    assignment = _allocate_table(shape, mem_cap)
    assignment[1:] = _SENTINEL
    canonicals, sizes = [0], [1]
    pos = 1
    while True:
        start = _next_unassigned(assignment, pos)
        if start < 0:
            break
        orbit_id = len(canonicals)
        if orbit_id >= _SENTINEL:
            raise RuntimeError(
                f"{shape} has more than {_SENTINEL - 1} orbits under these "
                f"programs, too many for a 2-byte cell")
        canonicals.append(start)
        sizes.append(_spin_into(assignment, orbit_id, start, programs))
        pos = start + 1
    assert sum(sizes) == shape.code_bound, "orbit sizes do not cover the space"
    return OrbitAtlas(shape, assignment, np.array(canonicals, np.uint32),
                      np.array(sizes, np.int64))


# ---- large orbits ----

@dataclass(frozen=True)
class LargeOrbitAtlas:
    """Orbits under the group extended by equal-dimension mode swaps.
    grouping[small_id] = large_id (grouping[0] = 0, the zero orbit);
    canonicals and sizes are indexed by large id as in OrbitAtlas."""

    shape: Shape
    grouping: np.ndarray
    canonicals: np.ndarray
    sizes: np.ndarray

    @property
    def orbit_count(self) -> int:
        return self.canonicals.size - 1


def merge_large_orbits(shape: Shape, atlas: OrbitAtlas) -> LargeOrbitAtlas:
    """Group the small orbits into orbits of the large group G x| S, G the
    small group and S = block_permutations(shape) the whole group of mode
    permutations that preserve dimensions.

    Each sigma in S normalizes G (sigma G sigma^-1 = G), so it maps the
    small orbit G x onto the small orbit G sigma(x), and the large orbit of
    x is the union of those images over sigma in S.  As S is the whole
    permutation group, not a generating set, the ids of sigma(canonical_i)
    over S are every small orbit in the large orbit of small orbit i, and
    their minimum is the same for all of them.  Small ids ascend with the
    canonical code, so that minimum holds the large orbit's canonical, and
    ranking the minima numbers the large orbits in canonical order.  The
    zero orbit is its own minimum, so it stays large id 0."""
    least = np.minimum.reduce([
        atlas.orbit_id(transpose_program(shape, sigma).apply_array(atlas.canonicals))
        for sigma in block_permutations(shape)])
    roots, grouping = np.unique(least, return_inverse=True)
    sizes = np.zeros(roots.size, dtype=np.int64)
    np.add.at(sizes, grouping, atlas.sizes)
    return LargeOrbitAtlas(shape, grouping, atlas.canonicals[roots], sizes)


# ---- snapshots ----

def save_atlas(atlas: OrbitAtlas, path: str) -> None:
    """Binary snapshot: magic, version, dims, cell width (always 2), the
    assignment for codes 1..2^N-1 (little endian), then the orbit records.
    The cells are written from the table without a copy on little-endian
    hosts, into a temporary file in the same directory that is renamed
    over path."""
    records = np.empty(atlas.orbit_count, _RECORD)
    records["canonical"] = atlas.canonicals[1:]
    records["size"] = atlas.sizes[1:]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_SNAPSHOT_MAGIC + bytes([_SNAPSHOT_VERSION, atlas.shape.n]))
            f.write(bytes(atlas.shape.dims) + bytes([_CELL.itemsize]))
            f.write(memoryview(atlas.assignment[1:].astype("<u2", copy=False)))
            f.write(struct.pack("<I", atlas.orbit_count) + records.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_atlas(path: str, shape: Shape | None = None, *,
               mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Read a snapshot written by save_atlas.  A snapshot of another
    format than shape, if given, raises ValueError before the table it
    would allocate is checked against mem_cap (MemoryCapError); the cells
    are read into that table directly.  Malformed files raise ValueError,
    as do records whose canonicals do not ascend, do not lie in their own
    orbit of the table, or have a code of their own orbit just below."""
    with open(path, "rb") as f:
        head = f.read(6)
        if head[:4] != _SNAPSHOT_MAGIC:
            raise ValueError(f"{path} is not an orbit snapshot")
        if len(head) < 6:
            raise ValueError(f"{path} is truncated")
        if head[4] != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {head[4]}")
        n = head[5]
        tail = f.read(n + 1)
        if len(tail) != n + 1:
            raise ValueError(f"{path} is truncated")
        dims = tuple(tail[:n])
        found = Shape(dims)
        if shape is not None and shape != found:
            raise ValueError(f"{path} holds {found}, expected {shape}")
        if tail[n] != _CELL.itemsize:
            raise ValueError(f"bad snapshot cell width {tail[n]}")
        cb = found.code_bound
        body = (cb - 1) * _CELL.itemsize
        if os.fstat(f.fileno()).st_size < f.tell() + body + 4:
            raise ValueError(f"{path} is truncated")
        assignment = _allocate_table(found, mem_cap)
        if f.readinto(memoryview(assignment[1:]).cast("B")) != body:
            raise ValueError(f"{path} is truncated")
        if sys.byteorder == "big":
            assignment.byteswap(inplace=True)
        rest = f.read()
    if len(rest) < 4:
        raise ValueError(f"{path} is truncated")
    (count,) = struct.unpack_from("<I", rest)
    if len(rest) != 4 + _RECORD.itemsize * count:
        raise ValueError(f"{path} has truncated or trailing record data")
    records = np.frombuffer(rest, _RECORD, offset=4)
    if sum(records["size"].tolist()) != cb - 1:
        raise ValueError(f"{path} record sizes do not cover the code space")
    # codes below canonical i lie in orbits below i, so the code just
    # below it does; checking every code would cost a table pass
    canonicals = np.concatenate(([0], records["canonical"])).astype(np.uint32)
    ids = np.arange(count + 1)
    if not ((canonicals[:-1] < canonicals[1:]).all() and canonicals[-1] < cb
            and (assignment[canonicals] == ids).all()
            and (assignment[canonicals[1:] - 1] < ids[1:]).all()):
        raise ValueError(f"{path} record canonicals disagree with the table")
    sizes = np.concatenate(([1], records["size"])).astype(np.int64)
    return OrbitAtlas(found, assignment, canonicals, sizes)
