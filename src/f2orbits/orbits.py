"""Orbit computation over the subspaces of the mode-1 slice space.

A code of format d1 x d2 x ... x dn is a d1-tuple of slices: slice j is
the tensor of format d2 x ... x dn at subscript j + 1 of mode 1, an
M-bit value with M = N / d1.  Mode 1 holds the most significant bits, so
integer order on codes is lex order on slice tuples.  Write G =
GL(d1,2) x G' with G' = GL(d2,2) x ... x GL(dn,2).

Transitivity.  G' acts on every slice by the same linear map g', so it
sends the span U of a tuple to g'(U).  GL(d1,2) recombines the slices
and keeps U.  A tuple spans a k-dimensional U exactly when it is A B for
a basis B of U (k rows) and a d1 x k coefficient matrix A of rank k, and
GL(d1,2) acts on such A from the left, transitively.  So the G-orbits on
codes correspond one to one with the G'-orbits on the subspaces of F2^M
of dimension at most min(d1, M), and a k-dimensional U is spanned by
t(k) = prod_{i<k} (2^d1 - 2^i) tuples.  The size of a tensor orbit is
therefore the sum of t(dim U) over the subspaces U of its subspace orbit.

Keys.  A subspace is stored as its reduced row echelon basis: rows with
distinct leading bits (pivots), each pivot clear in every other row.
Its key is the code with d1 - k zero slices followed by the k rows in
ascending order.  That is the least code whose slices span U, by a
greedy fill: a slot may stay zero only while the slots left can still
span U, so the least tuple starts with d1 - k zeros, and each later slot
must raise the dimension, least by taking the least element of U
outside the span so far; any such element keeps the rest fillable, so
slot by slot least is lex least.  With the rows b_1 < ... < b_k of the
reduced basis, that element is b_(j+1) after b_1, ..., b_j: the least
elements outside lead at the pivot of b_(j+1), they are b_(j+1) + w with
w in span(b_1, ..., b_j), and adding w != 0 sets the leading bit of w,
a pivot where b_(j+1) is clear, and keeps every bit above it.  So
b_(j+1) is least, the key of U is its least spanning code, and the
canonical form of an orbit, its least code, is the least key among its
subspaces.

Enumeration.  slices.py builds the keys of every subspace in ascending
order, pivot by pivot with no sorting or dedupe: each (k+1)-space is a
k-space plus a row whose pivot lies below every earlier pivot and is
clear in every earlier row, with its lower bits free.  For each
composite of group.generator_set, its slice map (the composite with the
identity on mode 1, applied to the 2^M codes of the last slice) gives
one uint32 permutation of the subspaces: map the rows of every key,
reduce them, pack, and find the image by binary search.  The
projections of generators of G generate G'.  A spin over the
permutations then marks one uint16 orbit id per subspace, scanning the
keys in ascending order, so each orbit starts at its canonical key and
the ids 1, 2, ... ascend with the canonical form.  Id 0 is the zero
tensor, the zero subspace at index 0.  Two bytes always suffice: no
format up to MAX_ENTRIES entries has more than 696 nonzero orbits
(tests/test_orbits.py::test_orbit_counts_fit_the_cell sweeps them all).

The keys and the ids are the atlas: orbit_id(code) reduces the code's
slices to a key and looks it up.  Every per-subspace array has S cells,
S the subspace count, which required_bytes takes from Gaussian binomials;
no array of 2^N cells is built.

A snapshot (format version 2) is a small header, S, the keys, the ids,
the orbit count and one (canonical, size) record per nonzero orbit, then
a CRC-32 of all of it.  Saving streams into a temporary file that
replaces the target only once complete; loading checks the memory cap
before it allocates, then the CRC and the records against the keys and
ids.
"""

import os
import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .group import block_permutations, generator_set, transpose_program
from .slices import (CHUNK, KEY, max_dim, permutation, slice_bits, slice_maps,
                     span_keys, spanning_codes, subspace_count, subspace_keys,
                     tuple_counts)
from .tensor import Shape

DEFAULT_MEM_CAP = 2 * 1024 ** 3

_SNAPSHOT_MAGIC = b"F2OA"
_SNAPSHOT_VERSION = 2
_CELL = np.dtype(np.uint16)
_SENTINEL = int(np.iinfo(_CELL).max)
_RECORD = np.dtype([("canonical", "<u4"), ("size", "<u8")])


class MemoryCapError(RuntimeError):
    """A run was refused because its tables would exceed the memory cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"tables need {required} bytes but the cap is {cap} bytes; "
            f"raise --mem-cap or F2TO_MEM_CAP to allow this")


def required_bytes(shape: Shape) -> int:
    """Peak bytes enumerate_orbits allocates, from the Gaussian binomials:
    per subspace a key, an id, a queue cell and one uint32 permutation
    per composite; the m slice maps and the lead table, 2^M uint32 each;
    and the transients of one chunk, which hold about 16 + 20 k bytes per
    item while reducing k rows (tests/test_orbits.py measures the peak
    with tracemalloc).  load_atlas is checked against the same figure."""
    s = subspace_count(shape)
    m = len(generator_set(shape))
    return ((10 + 4 * m) * s + 4 * (m + 1) * (1 << slice_bits(shape))
            + (16 + 20 * max_dim(shape)) * min(s, CHUNK))


def _check_cap(shape: Shape, mem_cap: int) -> None:
    need = required_bytes(shape)
    if need > mem_cap:
        raise MemoryCapError(need, mem_cap)


# ---- the atlas ----

@dataclass(frozen=True)
class OrbitAtlas:
    """Complete orbit partition: keys (uint32, ascending) lists the span
    of every subspace, assignment[i] (uint16) is the orbit id of the
    subspace with key keys[i], and for each orbit id canonicals[id]
    (uint32) is its least code and sizes[id] (int64) its tensor count;
    slot 0 is the zero orbit, canonical 0 and size 1.  Code outside this
    module reads orbits through orbit_id and members only."""

    shape: Shape
    keys: np.ndarray
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
        index = np.searchsorted(self.keys, span_keys(self.shape, codes.reshape(-1)))
        ids = self.assignment[index].reshape(codes.shape)
        return int(ids) if codes.ndim == 0 else ids

    def members(self, orbit_id: int) -> np.ndarray:
        """The codes of orbit orbit_id in ascending order, as uint32: the
        tuples A B for the reduced basis B of every subspace of the orbit
        and every d1 x k coefficient matrix A of rank k."""
        k = self._dimension(orbit_id)
        if k == 0:
            return np.zeros(1, KEY)
        out = spanning_codes(self.shape, self.keys[self.assignment == orbit_id], k)
        out.sort()
        return out

    def member_bytes(self, orbit_id: int) -> int:
        """Peak bytes members(orbit_id) allocates: the result, the id
        mask, the bases, the coefficients and one block."""
        k = self._dimension(orbit_id)
        size = int(self.sizes[orbit_id])
        t = tuple_counts(self.shape)[k]
        return (4 * size + self.keys.size + (4 + 4 * k) * (size // t) + 4 * k * t
                + 4 * max(CHUNK, t) + (16 + 20 * k) * CHUNK)

    def _dimension(self, orbit_id: int) -> int:
        """The dimension k of the subspaces of an orbit: its canonical is a
        key, and the keys of k-spaces lie in [2^((k-1)M), 2^(kM))."""
        m = slice_bits(self.shape)
        return (int(self.canonicals[orbit_id]).bit_length() + m - 1) // m


# ---- spinning ----

def _spin_into(assignment, orbit_id, start, perms, queue):
    """Mark the subspace orbit of start with orbit_id, breadth first with
    queue as the work list.  The permutations are bijections, so the
    images of a duplicate-free chunk are duplicate-free, and marking cells
    between permutations filters overlap without any sorting."""
    assignment[start] = orbit_id
    queue[0] = start
    head, tail = 0, 1
    while head < tail:
        stop = min(tail, head + CHUNK)
        frontier = queue[head:stop]
        for perm in perms:
            img = perm[frontier]
            fresh = img[assignment[img] == _SENTINEL]
            assignment[fresh] = orbit_id
            queue[tail:tail + fresh.size] = fresh
            tail += fresh.size
        head = stop


def _next_unassigned(assignment, pos):
    cb = assignment.size
    while pos < cb:
        hi = min(pos + CHUNK, cb)
        hits = assignment[pos:hi] == _SENTINEL
        i = int(hits.argmax())
        if hits[i]:
            return pos + i
        pos = hi
    return -1


def _orbit_sizes(shape: Shape, keys: np.ndarray, assignment: np.ndarray,
                 count: int) -> np.ndarray:
    """sizes[id] = the sum of t(dim U) over the subspaces U of orbit id;
    the k-spaces are the keys in [2^((k-1)M), 2^(kM))."""
    m = slice_bits(shape)
    bounds = np.searchsorted(keys, [0] + [1 << (k * m) for k in range(max_dim(shape) + 1)])
    sizes = np.zeros(count, np.int64)
    for t, lo, hi in zip(tuple_counts(shape), bounds[:-1], bounds[1:]):
        sizes += t * np.bincount(assignment[lo:hi], minlength=count)[:count]
    return sizes


def enumerate_orbits(shape: Shape, *, cell_width: int = 2,
                     mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Partition the codes of shape into the orbits of GL(d1,2) x ... x
    GL(dn,2) through the subspaces of the slice space; refused with
    MemoryCapError before allocating if required_bytes exceeds mem_cap.

    cell_width accepts only 2; benchmark/layers.py passes it, and it can
    go once that script stops doing so."""
    if cell_width != 2:
        raise ValueError(f"cell_width must be 2, got {cell_width}")
    _check_cap(shape, mem_cap)
    keys = subspace_keys(shape)
    perms = [permutation(shape, keys, table) for table in slice_maps(shape)]
    assignment = np.full(keys.size, _SENTINEL, _CELL)
    assignment[0] = 0
    queue = np.empty(keys.size, KEY)
    canonicals = [0]
    pos = 1
    while (start := _next_unassigned(assignment, pos)) >= 0:
        orbit_id = len(canonicals)
        if orbit_id >= _SENTINEL:
            raise RuntimeError(
                f"{shape} has more than {_SENTINEL - 1} orbits, too many for a 2-byte cell")
        canonicals.append(int(keys[start]))
        _spin_into(assignment, orbit_id, start, perms, queue)
        pos = start + 1
    del perms, queue
    sizes = _orbit_sizes(shape, keys, assignment, len(canonicals))
    assert sizes.sum() == shape.code_bound, "orbit sizes do not cover the space"
    return OrbitAtlas(shape, keys, assignment, np.array(canonicals, np.uint32), sizes)


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
    """Binary snapshot: magic, version, mode count, dims, cell width
    (always 2), S, the keys (<u4), the ids (<u2), the orbit count and the
    orbit records, then the CRC-32 of everything before it.  The arrays
    are written without a copy on little-endian hosts, into a temporary
    file in the same directory that is renamed over path."""
    records = np.empty(atlas.orbit_count, _RECORD)
    records["canonical"] = atlas.canonicals[1:]
    records["size"] = atlas.sizes[1:]
    header = (_SNAPSHOT_MAGIC + bytes([_SNAPSHOT_VERSION, atlas.shape.n])
              + bytes(atlas.shape.dims) + bytes([_CELL.itemsize]))
    parts = (header, struct.pack("<I", atlas.keys.size),
             memoryview(atlas.keys.astype("<u4", copy=False)).cast("B"),
             memoryview(atlas.assignment.astype("<u2", copy=False)).cast("B"),
             struct.pack("<I", atlas.orbit_count), records.tobytes())
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for part in parts:
                f.write(part)
                crc = zlib.crc32(part, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_array(f, path, count, dtype):
    out = np.empty(count, dtype)
    if f.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise ValueError(f"{path} is truncated")
    return out


def load_atlas(path: str, shape: Shape | None = None, *,
               mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Read a snapshot written by save_atlas.  A snapshot of another
    format than shape, if given, raises ValueError before required_bytes
    of its format is checked against mem_cap (MemoryCapError), and that
    check comes before any allocation.  Malformed files raise ValueError:
    a bad header, length or CRC, keys other than the subspace keys of
    the format, ids past the orbit count, ids whose tuple counts disagree with the sizes, and
    records whose canonicals do not ascend, are not the key of their own
    subspace, lie in another orbit or have a code of their own orbit just
    below."""
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
        found = Shape(tuple(tail[:n]))
        if shape is not None and shape != found:
            raise ValueError(f"{path} holds {found}, expected {shape}")
        if tail[n] != _CELL.itemsize:
            raise ValueError(f"bad snapshot cell width {tail[n]}")
        _check_cap(found, mem_cap)
        count_s = f.read(4)
        if len(count_s) != 4:
            raise ValueError(f"{path} is truncated")
        (s,) = struct.unpack("<I", count_s)
        if s != subspace_count(found):
            raise ValueError(f"{path} lists {s} subspaces, {found} has "
                             f"{subspace_count(found)}")
        if os.fstat(f.fileno()).st_size < f.tell() + 6 * s + 8:
            raise ValueError(f"{path} is truncated")
        keys = _read_array(f, path, s, "<u4")
        assignment = _read_array(f, path, s, "<u2")
        rest = f.read()
    crc = zlib.crc32(keys, zlib.crc32(count_s, zlib.crc32(tail, zlib.crc32(head))))
    crc = zlib.crc32(assignment, crc)
    if len(rest) < 8:
        raise ValueError(f"{path} is truncated")
    (count,) = struct.unpack_from("<I", rest)
    if len(rest) != 8 + _RECORD.itemsize * count:
        raise ValueError(f"{path} has truncated or trailing record data")
    if zlib.crc32(rest[:-4], crc) != struct.unpack_from("<I", rest, len(rest) - 4)[0]:
        raise ValueError(f"{path} fails its CRC check")
    if sys.byteorder == "big":
        keys, assignment = keys.astype(KEY), assignment.astype(_CELL)
    else:
        keys, assignment = keys.view(KEY), assignment.view(_CELL)
    records = np.frombuffer(rest, _RECORD, count, offset=4)
    canonicals = np.concatenate(([0], records["canonical"])).astype(np.uint32)
    sizes = np.concatenate(([1], records["size"])).astype(np.int64)
    atlas = OrbitAtlas(found, keys, assignment, canonicals, sizes)
    # the keys depend on the format alone; rebuilding them costs about
    # as much as reading them
    if not np.array_equal(keys, subspace_keys(found)):
        raise ValueError(f"{path} keys are not the subspaces of {found}")
    if int(assignment.max()) > count:
        raise ValueError(f"{path} has an orbit id past its {count} orbits")
    if (_orbit_sizes(found, keys, assignment, count + 1) != sizes).any():
        raise ValueError(f"{path} record sizes disagree with the orbit ids")
    # codes below canonical i lie in orbits below i, so the code just
    # below it does; each canonical must also be its own subspace's key
    ids = np.arange(count + 1)
    if not ((canonicals[:-1] < canonicals[1:]).all()
            and canonicals[-1] < found.code_bound
            and (span_keys(found, canonicals) == canonicals).all()
            and (atlas.orbit_id(canonicals) == ids).all()
            and (atlas.orbit_id(canonicals[1:] - 1) < ids[1:]).all()):
        raise ValueError(f"{path} record canonicals disagree with the keys and ids")
    return atlas
