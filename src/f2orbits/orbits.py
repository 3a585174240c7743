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

Enumeration.  slices.permutations builds the keys of every subspace in
ascending order, pivot by pivot with no sorting or dedupe: each
(k+1)-space is a k-space plus a row whose pivot lies below every earlier
pivot and is clear in every earlier row, with its lower bits free.  For
each element of group.generator_set, which generate G' and hold the
identity on mode 1, its slice map (the element on the 2^M codes of the
last slice) gives one slices.INDEX permutation of the subspaces: map the
rows of every key and number their span with slices.span_index, which
reduces the rows and ranks the basis by arithmetic on its pivots and
free bits, with no search.  The keys go when the permutations are
built.  spin.py then marks one orbit id, a spin.CELL, per subspace,
many orbits per pass: a batch takes the next
unassigned keys in ascending order as its starts, of one dimension or
several, spreads them all breadth first, and makes each class of starts
that meet one orbit.  Its least start is its canonical key: every key
below the last start was either assigned before the batch or is a
start, and every orbit the batch meets was wholly unassigned, as each
batch spins its orbits whole.  So numbering the classes by least start
keeps the ids 1, 2, ... ascending with the canonical form, with no
renumbering pass.  Id 0 is the zero tensor, the zero subspace at index
0.  A two-byte CELL suffices with a batch of provisional labels below
its sentinel: no format up to MAX_ENTRIES entries has more than 696
nonzero orbits (tests/test_orbits.py::test_orbit_counts_fit_the_cell).

The ids are the atlas, the one array of S cells it keeps, S the
subspace count: orbit_id(code) numbers the span of the code's slices
with the same span_index, and slices.unrank, its inverse, gives back the
key of a subspace from its index, for the canonicals and for members.
merge_large_orbits permutes the modes of every canonical with
group.transpose_codes, which moves each bit to the bit of its basis
tensor's image, and reads the images' ids through orbit_id.  The cap's
figures here (required_bytes, atlas_bytes, member_bytes) take S from
Gaussian binomials, build no array of 2^N cells, and add up the bytes
that slices.py and spin.py write beside each of their kernels.

Since the ids ascend with the canonical form, id i first occurs where
the running maximum of the ids steps to i, at the index of orbit i's
canonical key, which unrank turns into the canonical.  So a snapshot
(format version 3) is a small header naming the format, the S ids and a
CRC-32 of both, and enumeration and loading derive the canonicals and
sizes the same way, in _atlas, in one pass over chunks of the ids with
no key array.  A chunk whose largest id does not pass the peak of the
chunks before it holds no first occurrence, so the pass takes the
running maximum only in the chunks that raise the peak (6 of the 53 on
3x3x3); the others only count their ids.  Saving writes a temporary
file that replaces the target only once complete; loading checks the
memory cap before it allocates, then the length and the CRC.
"""

import os
import zlib
from dataclasses import dataclass

import numpy as np

from .group import (block_permutations, generator_set, group_order, small_group_order,
                    transpose_codes)
from .slices import (CHUNK, CODE, index_tables, level_bounds, permutations, permutations_bytes,
                     slice_bits, span_index, spanning_codes, spanning_codes_bytes,
                     subspace_count, tuple_counts, unpack, unrank, unrank_bytes)
from .spin import CELL, spin, spin_bytes
from .tensor import Shape

DEFAULT_MEM_CAP = 2 * 1024 ** 3
FIXED_BYTES = 16 << 10

_SNAPSHOT_MAGIC = b"F2OA"
_SNAPSHOT_VERSION = 3


class MemoryCapError(RuntimeError):
    """A run was refused because its tables would exceed the memory cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"tables need {required} bytes but the cap is {cap} bytes; "
            f"raise --mem-cap or F2TO_MEM_CAP to allow this")


def required_bytes(shape: Shape) -> int:
    """Peak bytes enumerate_orbits allocates: FIXED_BYTES of small arrays
    and Python objects plus the larger of slices.permutations_bytes and
    spin.spin_bytes; _atlas, last, holds less (atlas_bytes) than the spin."""
    s, m = subspace_count(shape), len(generator_set(shape))
    return FIXED_BYTES + max(permutations_bytes(shape), spin_bytes(s, m))


def atlas_bytes(shape: Shape) -> int:
    """Peak bytes _atlas allocates, with the S CELL ids it reads: per item
    of one chunk of its pass, the running maximum in CELL, a step mask
    and bincount's intp copy of the ids; and FIXED_BYTES, which also
    covers the per-orbit arrays of at most 697 orbits."""
    s = subspace_count(shape)
    return CELL.itemsize * s + (CELL.itemsize + 9) * min(s, CHUNK) + FIXED_BYTES


def _check_cap(need: int, mem_cap: int) -> None:
    """The one raise of MemoryCapError: need bytes against mem_cap."""
    if need > mem_cap:
        raise MemoryCapError(need, mem_cap)


# ---- the atlas ----

@dataclass(frozen=True)
class OrbitAtlas:
    """Complete orbit partition: assignment[i] (spin.CELL) is the orbit id
    of subspace i, the subspace whose key slices.unrank gives, and for
    each orbit id canonicals[id] (slices.CODE) is its least code, sizes[id]
    (int64) its tensor count; slot 0 is the zero orbit, canonical 0 and
    size 1.  Code outside this module reads orbits through orbit_id and
    members only."""

    shape: Shape
    assignment: np.ndarray
    canonicals: np.ndarray
    sizes: np.ndarray

    @property
    def orbit_count(self) -> int:
        """Number of nonzero orbits."""
        return self.canonicals.size - 1

    @property
    def nbytes(self) -> int:
        """Bytes held by the ids, canonicals and sizes."""
        return self.assignment.nbytes + self.canonicals.nbytes + self.sizes.nbytes

    def orbit_id(self, codes):
        """The orbit id of an int code, or an array of ids for an integer
        array of codes.  ValueError if any code is out of range."""
        codes, bound = np.asarray(codes), self.shape.code_bound
        # min and max allocate nothing; the mask is built only to report
        if codes.size and (codes.min() < 0 or codes.max() >= bound):
            bad = codes[(codes < 0) | (codes >= bound)]
            raise ValueError(f"code {bad.flat[0]} out of range for {self.shape}")
        flat = codes.reshape(-1)
        d1, m, tables = self.shape.dims[0], slice_bits(self.shape), index_tables(self.shape)
        ids = np.empty(flat.size, CELL)
        for lo in range(0, flat.size, CHUNK):
            chunk = flat[lo:lo + CHUNK].astype(CODE, copy=False)
            ids[lo:lo + CHUNK] = self.assignment[span_index(unpack(chunk, m, d1), tables)]
        ids = ids.reshape(codes.shape)
        return int(ids) if codes.ndim == 0 else ids

    def members(self, orbit_id: int) -> np.ndarray:
        """The codes of orbit orbit_id in ascending order, as CODE: the
        tuples A B for the reduced basis B of every subspace of the orbit
        and every d1 x k coefficient matrix A of rank k."""
        k = self._dimension(orbit_id)
        if k == 0:
            return np.zeros(1, CODE)
        lo, hi = level_bounds(self.shape)[k:k + 2]
        keys = unrank(self.shape, np.flatnonzero(self.assignment[lo:hi] == orbit_id) + lo)
        out = spanning_codes(self.shape, keys, k)
        out.sort()
        return out

    def member_bytes(self, orbit_id: int) -> int:
        """Peak bytes members(orbit_id) allocates: FIXED_BYTES plus the
        largest of its phases over the orbit's n k-spaces, which hold the id
        mask over their level and the n int64 indices; those, the CODE keys
        and unrank's bytes; or the keys and spanning_codes' bytes."""
        k, code = self._dimension(orbit_id), CODE.itemsize
        if k == 0:
            return code + FIXED_BYTES
        n = int(self.sizes[orbit_id]) // tuple_counts(self.shape)[k]
        lo, hi = level_bounds(self.shape)[k:k + 2]
        return FIXED_BYTES + max(hi - lo + 8 * n, (8 + code) * n + unrank_bytes(k, n),
                                 code * n + spanning_codes_bytes(self.shape, k, n))

    def _dimension(self, orbit_id: int) -> int:
        """The dimension k of the subspaces of an orbit: its canonical is a
        key, and the keys of k-spaces lie in [2^((k-1)M), 2^(kM))."""
        m = slice_bits(self.shape)
        return (int(self.canonicals[orbit_id]).bit_length() + m - 1) // m


# ---- enumeration ----

def _atlas(shape: Shape, assignment: np.ndarray) -> OrbitAtlas:
    """The atlas of the ids of every subspace, with each orbit's canonical
    and size derived in one pass over chunks of the ids: the key where the
    running maximum of the ids steps to its id, and t(k) times its count
    of subspaces, k the canonical's dimension.  The running maximum is
    taken only in a chunk whose largest id passes the peak so far, as no
    id first occurs in any other; the largest id is a reduction, which
    allocates nothing, so atlas_bytes holds.  ValueError for a nonzero
    id at the zero subspace, an id above the level it first occurs in,
    ids that skip a number or first occur out of order, or a count that
    does not divide |G'|, as a G'-orbit's does: so every size divides |G|."""
    if assignment[0] != 0:
        raise ValueError(f"orbit id {assignment[0]} at the zero subspace")
    counts, firsts, tops, peak = np.ones(1, np.int64), [np.zeros(1, np.intp)], [0], 0
    bounds = level_bounds(shape)
    for start, stop in zip(bounds[1:], bounds[2:]):
        for lo in range(start, stop, CHUNK):
            ids = assignment[lo:min(lo + CHUNK, stop)]
            if ids.min() <= tops[-1]:
                raise ValueError(f"orbit {ids.min()} has subspaces of more than one dimension")
            # the chunk's running maximum, from the last one's at lo - 1
            if ids.max() > peak:
                run = np.maximum.accumulate(assignment[lo - 1:lo + ids.size])
                np.maximum(run, peak, out=run)
                firsts.append(np.flatnonzero(run[1:] != run[:-1]) + lo)
                peak = int(run[-1])
                counts = np.concatenate((counts, np.zeros(peak + 1 - counts.size, np.int64)))
            counts += np.bincount(ids, minlength=counts.size)
        tops.append(peak)
    firsts = np.concatenate(firsts)
    if not counts.all():
        raise ValueError(f"orbit ids skip {counts.argmin()}")
    if firsts.size != counts.size:
        raise ValueError("orbit ids do not ascend with their least keys")
    order = small_group_order(shape) // group_order(shape.dims[0])
    for i, n in enumerate(counts.tolist()):
        if order % n:
            raise ValueError(f"orbit {i} has {n} subspaces, which does not divide |G'| = {order}")
    # the ids of the k-spaces' orbits run from the top id of level k - 1 up
    sizes = np.repeat(tuple_counts(shape), np.diff(tops, prepend=-1)) * counts
    assert sizes.sum() == shape.code_bound, "orbit sizes do not cover the space"
    return OrbitAtlas(shape, assignment, unrank(shape, firsts), sizes)


def enumerate_orbits(shape: Shape, *, cell_width: int = CELL.itemsize,
                     mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Partition the codes of shape into the orbits of GL(d1,2) x ... x
    GL(dn,2) through the subspaces of the slice space; refused with
    MemoryCapError before allocating if required_bytes exceeds mem_cap.

    cell_width accepts only CELL's itemsize; benchmark/layers.py passes
    it, and it can go once that script stops doing so."""
    if cell_width != CELL.itemsize:
        raise ValueError(f"cell_width must be {CELL.itemsize}, got {cell_width}")
    _check_cap(required_bytes(shape), mem_cap)
    return _atlas(shape, spin(permutations(shape)))


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
    images = transpose_codes(shape, atlas.canonicals, block_permutations(shape))
    least = atlas.orbit_id(images).min(axis=1)
    roots, grouping = np.unique(least, return_inverse=True)
    sizes = np.zeros(roots.size, dtype=np.int64)
    np.add.at(sizes, grouping, atlas.sizes)
    return LargeOrbitAtlas(shape, grouping, atlas.canonicals[roots], sizes)


# ---- snapshots ----

def save_atlas(atlas: OrbitAtlas, path: str) -> None:
    """Binary snapshot, 6 + n + c S + 4 bytes for n modes, S subspaces and
    c-byte CELL ids: magic, version, mode count, dims, the little-endian
    ids and the CRC-32 of everything before it.  The ids are written
    without a copy on little-endian hosts, into a temporary file in the
    same directory that is renamed over path."""
    header = (_SNAPSHOT_MAGIC + bytes([_SNAPSHOT_VERSION, atlas.shape.n])
              + bytes(atlas.shape.dims))
    ids = memoryview(atlas.assignment.astype(CELL.newbyteorder("<"), copy=False)).cast("B")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(ids)
            f.write(zlib.crc32(ids, zlib.crc32(header)).to_bytes(4, "little"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_atlas(path: str, shape: Shape | None = None, *,
               mem_cap: int = DEFAULT_MEM_CAP) -> OrbitAtlas:
    """Read a snapshot written by save_atlas and derive the canonicals
    and sizes from its format and ids.  A snapshot of another format than
    shape, if given, raises ValueError before atlas_bytes of its format
    is checked against mem_cap (MemoryCapError), and that check comes
    before any allocation.  Malformed files raise ValueError: a bad
    magic, version or header, a length other than the format's, a failed
    CRC, and ids that _atlas refuses.  A snapshot is trusted input: the
    CRC guards against corruption only, and the checks do not prove the
    ids right (13 of 400 one-id edits load on 2x2x2, 12 of 650 on 3x2x2:
    those that keep each orbit in one level and every count dividing |G'|)."""
    with open(path, "rb") as f:
        head = f.read(6)
        if head[:4] != _SNAPSHOT_MAGIC:
            raise ValueError(f"{path} is not an orbit snapshot")
        if len(head) < 6:
            raise ValueError(f"{path} is truncated")
        if head[4] != _SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {head[4]}")
        dims = f.read(head[5])
        if len(dims) != head[5]:
            raise ValueError(f"{path} is truncated")
        found = Shape(tuple(dims))
        if shape is not None and shape != found:
            raise ValueError(f"{path} holds {found}, expected {shape}")
        _check_cap(atlas_bytes(found), mem_cap)
        s = subspace_count(found)
        size, expected = os.fstat(f.fileno()).st_size, 6 + len(dims) + CELL.itemsize * s + 4
        if size != expected:
            raise ValueError(f"{path} has {size} bytes; a {found} snapshot has {expected}")
        assignment = np.empty(s, CELL.newbyteorder("<"))
        if f.readinto(memoryview(assignment).cast("B")) != assignment.nbytes:
            raise ValueError(f"{path} is truncated")
        crc = int.from_bytes(f.read(4), "little")
    if zlib.crc32(assignment, zlib.crc32(dims, zlib.crc32(head))) != crc:
        raise ValueError(f"{path} fails its CRC check")
    return _atlas(found, assignment.astype(CELL, copy=False))
