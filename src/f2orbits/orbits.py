"""Orbit computation over the full code space.

The assignment table is the central object: one cell per code, holding the
orbit id.  During enumeration it doubles as the visited structure (cells
start at a sentinel, the dtype maximum).  The scan visits codes in
ascending order and spins each unassigned code into a new orbit, so orbit
ids 1, 2, ... increase with the orbit's minimal element.  Code 0 is the
zero tensor, always orbit id 0.

Spinning is breadth first over the compiled generator programs, by
default the few fused composites of group.generator_set, so each code
costs one table gather per composite.  The programs are bijections, so a
duplicate-free frontier has duplicate-free images, and marking cells
between programs filters overlap without any sorting.

A snapshot (format version 1) is a small header, the cells of codes
1..2^N-1 in little-endian order, then the orbit records.  Saving streams
the cells straight from the table into a temporary file that replaces the
target only once complete; loading checks the memory cap, then reads the
cells into the one table it allocates.
"""

import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .group import (GeneratorSet, block_permutations, compile_generators,
                    generator_set, transpose_program)
from .tensor import Shape

DEFAULT_MEM_CAP = 2 * 1024 ** 3

_SNAPSHOT_MAGIC = b"F2OA"
_SNAPSHOT_VERSION = 1

# frontier expansion is chunked so transient buffers stay bounded
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
class OrbitRecord:
    orbit_id: int
    canonical: int
    size: int


class OrbitAtlas:
    """Complete orbit partition: assignment[code] = orbit id, plus one
    OrbitRecord per nonzero orbit (records[i] has orbit_id i + 1)."""

    def __init__(self, shape: Shape, assignment: np.ndarray, records):
        self.shape = shape
        self.assignment = assignment
        self.records = list(records)

    @property
    def orbit_count(self) -> int:
        """Number of nonzero orbits."""
        return len(self.records)

    def orbit_id(self, code: int) -> int:
        if not 0 <= code < self.shape.code_bound:
            raise ValueError(f"code {code} out of range for {self.shape}")
        return int(self.assignment[code])

    def record(self, orbit_id: int) -> OrbitRecord:
        if not 1 <= orbit_id <= len(self.records):
            raise ValueError(f"no orbit with id {orbit_id}")
        return self.records[orbit_id - 1]


def required_bytes(shape: Shape, cell_width: int = 2) -> int:
    """Size of the long-lived table a classify run allocates: one cell per
    code.  Transient frontier and adjacency buffers are bounded by the
    chunk sizes and not counted."""
    return shape.code_bound * cell_width


# ---- spinning ----

def _spin_into(assignment, sentinel, orbit_id, start, programs):
    """Mark the orbit of start with orbit_id; returns the orbit size."""
    assignment[start] = orbit_id
    frontier = np.array([start], dtype=np.intp)
    size = 1
    while frontier.size:
        grown = []
        for prog in programs:
            for lo in range(0, frontier.size, _SPIN_CHUNK):
                img = prog.apply_array(frontier[lo:lo + _SPIN_CHUNK])
                fresh = img[assignment[img] == sentinel]
                if fresh.size:
                    assignment[fresh] = orbit_id
                    grown.append(fresh)
        frontier = np.concatenate(grown) if grown else np.empty(0, np.intp)
        size += int(frontier.size)
    return size


def _fresh_assignment(shape, cell_width, mem_cap):
    if cell_width not in (2, 4):
        raise ValueError("cell_width must be 2 or 4")
    need = required_bytes(shape, cell_width)
    if mem_cap is not None and need > mem_cap:
        raise MemoryCapError(need, mem_cap)
    dtype = np.uint16 if cell_width == 2 else np.uint32
    assignment = np.full(shape.code_bound, np.iinfo(dtype).max, dtype)
    assignment[0] = 0
    return assignment, int(np.iinfo(dtype).max)


def spin(shape: Shape, start: int, gens: GeneratorSet | None = None) -> np.ndarray:
    """The orbit of a nonzero code under the generated group, as an
    ascending array of codes."""
    if not 0 < start < shape.code_bound:
        raise ValueError(f"start code {start} out of range for {shape}")
    if gens is None:
        gens = generator_set(shape)
    programs = compile_generators(shape, gens)
    assignment, sentinel = _fresh_assignment(shape, 2, None)
    _spin_into(assignment, sentinel, 1, start, programs)
    return np.flatnonzero(assignment == 1).astype(np.uint32)


def _next_unassigned(assignment, sentinel, pos):
    cb = assignment.size
    while pos < cb:
        hi = min(pos + _SCAN_BLOCK, cb)
        hits = assignment[pos:hi] == sentinel
        i = int(hits.argmax())
        if hits[i]:
            return pos + i
        pos = hi
    return -1


def enumerate_orbits(shape: Shape, gens: GeneratorSet | None = None, *,
                     cell_width: int = 2, mem_cap: int | None = DEFAULT_MEM_CAP,
                     extra_programs=()) -> OrbitAtlas:
    """Partition the full nonzero code space into orbits.

    extra_programs may carry additional compiled bijections (for example
    mode permutations) to enumerate under a larger group directly."""
    if gens is None:
        gens = generator_set(shape)
    programs = tuple(compile_generators(shape, gens)) + tuple(extra_programs)
    assignment, sentinel = _fresh_assignment(shape, cell_width, mem_cap)
    records = []
    pos = 1
    while True:
        start = _next_unassigned(assignment, sentinel, pos)
        if start < 0:
            break
        orbit_id = len(records) + 1
        if orbit_id >= sentinel:
            raise RuntimeError(
                "orbit ids would overflow the cell width; rerun with cell_width=4")
        size = _spin_into(assignment, sentinel, orbit_id, start, programs)
        records.append(OrbitRecord(orbit_id, start, size))
        pos = start + 1
    total = sum(r.size for r in records)
    assert total == shape.code_bound - 1, "orbit sizes do not cover the space"
    return OrbitAtlas(shape, assignment, records)


# ---- large orbits ----

@dataclass(frozen=True)
class LargeOrbitAtlas:
    """Orbits under the group extended by equal-dimension mode swaps.
    grouping[small_id] = large_id; records follow OrbitAtlas conventions;
    constituents[i] lists the small orbit ids merged into large id i+1."""

    shape: Shape
    grouping: np.ndarray
    records: tuple[OrbitRecord, ...]
    constituents: tuple[tuple[int, ...], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.records)


def merge_large_orbits(shape: Shape, atlas: OrbitAtlas) -> LargeOrbitAtlas:
    """Union small orbits whose canonical forms are related by a mode
    permutation.  Permuting equal-dimension modes normalizes the small
    group, so images of canonical forms locate whole orbits."""
    canonicals = np.array([r.canonical for r in atlas.records], dtype=np.uint32)
    parent = list(range(len(atlas.records) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in block_permutations(shape)[1:]:
        images = transpose_program(shape, sigma).apply_array(canonicals)
        others = atlas.assignment[images].tolist()
        for rec, other in zip(atlas.records, others):
            a, b = find(rec.orbit_id), find(other)
            if a != b:
                parent[max(a, b)] = min(a, b)

    groups = {}
    for rec in atlas.records:
        groups.setdefault(find(rec.orbit_id), []).append(rec)
    merged = []
    for members in groups.values():
        canonical = min(r.canonical for r in members)
        size = sum(r.size for r in members)
        merged.append((canonical, size, tuple(r.orbit_id for r in members)))
    merged.sort()
    grouping = np.zeros(len(atlas.records) + 1, dtype=np.uint32)
    records = []
    constituents = []
    for i, (canonical, size, small_ids) in enumerate(merged, start=1):
        records.append(OrbitRecord(i, canonical, size))
        constituents.append(small_ids)
        for sid in small_ids:
            grouping[sid] = i
    return LargeOrbitAtlas(shape, grouping, tuple(records), tuple(constituents))


# ---- snapshots ----

def save_atlas(atlas: OrbitAtlas, path: str) -> None:
    """Binary snapshot: magic, version, dims, cell width, assignment for
    codes 1..2^N-1 (little endian), then the orbit records.  The cells are
    written from the table without a copy on little-endian hosts, into a
    temporary file in the same directory that is renamed over path."""
    cell_width = atlas.assignment.dtype.itemsize
    kind = "<u2" if cell_width == 2 else "<u4"
    records = [struct.pack("<I", len(atlas.records))]
    records += [struct.pack("<IQ", r.canonical, r.size) for r in atlas.records]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_SNAPSHOT_MAGIC + bytes([_SNAPSHOT_VERSION, atlas.shape.n]))
            f.write(bytes(atlas.shape.dims) + bytes([cell_width]))
            f.write(memoryview(atlas.assignment[1:].astype(kind, copy=False)))
            f.write(b"".join(records))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_atlas(path: str, shape: Shape | None = None, *,
               mem_cap: int | None = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Read a snapshot written by save_atlas.  The table it allocates is
    checked against mem_cap first (MemoryCapError), and the cells are read
    into it directly.  Malformed files raise ValueError."""
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
            raise ValueError(f"snapshot holds {found}, expected {shape}")
        cell_width = tail[n]
        if cell_width not in (2, 4):
            raise ValueError(f"bad snapshot cell width {cell_width}")
        cb = found.code_bound
        body = (cb - 1) * cell_width
        if os.fstat(f.fileno()).st_size < f.tell() + body + 4:
            raise ValueError(f"{path} is truncated")
        need = required_bytes(found, cell_width)
        if mem_cap is not None and need > mem_cap:
            raise MemoryCapError(need, mem_cap)
        assignment = np.empty(cb, dtype=np.uint16 if cell_width == 2 else np.uint32)
        assignment[0] = 0
        if f.readinto(memoryview(assignment[1:]).cast("B")) != body:
            raise ValueError(f"{path} is truncated")
        if sys.byteorder == "big":
            assignment.byteswap(inplace=True)
        rest = f.read()
    if len(rest) < 4:
        raise ValueError(f"{path} is truncated")
    (count,) = struct.unpack_from("<I", rest)
    if len(rest) != 4 + 12 * count:
        raise ValueError(f"{path} has truncated or trailing record data")
    records = [OrbitRecord(i + 1, *struct.unpack_from("<IQ", rest, 4 + 12 * i))
               for i in range(count)]
    if sum(r.size for r in records) != cb - 1:
        raise ValueError(f"{path} record sizes do not cover the code space")
    return OrbitAtlas(found, assignment, records)
