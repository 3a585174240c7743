"""Tensor rank per orbit, as the breadth-first distance from the zero orbit.

The rank of a tensor is the least number of simple tensors that sum to
it, so it is the BFS distance from 0 in the graph that joins x and x XOR
s for every simple tensor s.  The group maps simple tensors to simple
tensors, so rank is constant on orbits, and it is the distance from the
zero orbit in the graph that joins orbits O1 and O2 when x XOR s lies in
O2 for some x in O1 and simple s, a symmetric relation.  Given such x
and s, take g with g x = c1, the canonical of O1; then c1 XOR g s lies
in O2, and g s is simple.  So O1 and O2 are adjacent exactly when c1
XOR S lies in O2 for some simple S, and one orbit_id lookup of every
canonical XOR every simple tensor gives a (K, number of simple tensors)
table of adjacent orbit ids (spin.CELL), K = orbit count + 1 (at most
697, for 3x2x2x2, over every format up to 27 entries).  Row 0 holds the
orbits of the simple tensors themselves, and the group is transitive on
simple tensors, which propagate_ranks checks.  The BFS advances a whole
frontier per step, marking the ids in the frontier's rows.
"""

import math
from typing import NamedTuple

import numpy as np

from .group import linear_table
from .orbits import FIXED_BYTES, LargeOrbitAtlas, OrbitAtlas
from .slices import CODE, outer, span_index_bytes
from .spin import CELL
from .tensor import Shape, simple_code


class RankAtlas:
    """by_orbit[orbit_id] = rank (index 0 is the zero orbit, rank 0)."""

    def __init__(self, by_orbit: np.ndarray):
        self.by_orbit = by_orbit

    @property
    def max_rank(self) -> int:
        return int(self.by_orbit.max())


def enumerate_simple_tensors(shape: Shape) -> np.ndarray:
    """The prod(2^dk - 1) rank-1 codes, one per tuple of nonzero vectors,
    ascending, as CODE.  v1 (x) ... (x) vn is the AND over k of the mask of
    vk on mode k, the simple code with all-ones vectors on the other modes,
    which is linear in vk, so one linear_table per mode holds its masks."""
    ones = [(1 << d) - 1 for d in shape.dims]
    codes = np.full(1, shape.code_bound - 1, CODE)
    for k, d in enumerate(shape.dims):
        masks = linear_table([simple_code(shape.dims, ones[:k] + [1 << b] + ones[k + 1:])
                              for b in range(d)], CODE)[1:]
        codes = outer(np.bitwise_and, codes, masks,
                      np.empty((codes.size, masks.size), CODE)).reshape(-1)
    codes.sort()
    assert (codes[1:] != codes[:-1]).all(), "simple tensors repeat"
    return codes


def rank_bytes(atlas: OrbitAtlas) -> int:
    """Peak bytes propagate_ranks allocates, with the atlas it reads, for K
    = orbit count + 1 and n simple tensors: FIXED_BYTES, the atlas's
    arrays by their size, 16 bytes per orbit for the BFS, and the lookup:
    the simple tensors and the K n codes in CODE, their CELL ids and
    span_index over the codes' d1 slots.  Building the simple tensors and
    a BFS step take less, and so, beside the atlas, does the large
    flavor's merge, which follows unchecked (about 120 KB against 404 KB on 2x2x2x2)."""
    k, n = atlas.orbit_count + 1, math.prod((1 << d) - 1 for d in atlas.shape.dims)
    return (FIXED_BYTES + atlas.nbytes + 16 * k + CODE.itemsize * (1 + k) * n
            + CELL.itemsize * k * n + span_index_bytes(atlas.shape, atlas.shape.dims[0], k * n))


def _orbit_adjacency(atlas: OrbitAtlas) -> np.ndarray:
    """The (K, number of simple tensors) table of the orbit ids of
    canonical_i XOR S for every simple tensor S, K = orbit count + 1: row
    i lists the orbits adjacent to orbit i, and row 0, the zero orbit's,
    the orbits of the simple tensors."""
    simples = enumerate_simple_tensors(atlas.shape)
    codes = np.empty((atlas.canonicals.size, simples.size), CODE)
    return atlas.orbit_id(outer(np.bitwise_xor, atlas.canonicals, simples, codes))


def propagate_ranks(shape: Shape, atlas: OrbitAtlas) -> RankAtlas:
    """Assign every orbit of atlas, of format shape, its rank: its BFS
    distance from the zero orbit over _orbit_adjacency (module
    docstring).  RuntimeError if the simple tensors fall into more than
    one orbit or an orbit is unreachable."""
    ids = _orbit_adjacency(atlas)
    if (ids[0] != ids[0, 0]).any():
        raise RuntimeError(f"simple tensors fall into {np.count_nonzero(np.bincount(ids[0]))} "
                           "orbits; the group action is broken")
    by_orbit = np.zeros(atlas.orbit_count + 1, dtype=np.uint8)
    reached = np.zeros(atlas.orbit_count + 1, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    rank = 0
    while frontier.size:
        rank += 1
        hit = np.zeros(atlas.orbit_count + 1, dtype=bool)
        hit[ids[frontier]] = True
        hit &= ~reached
        reached |= hit
        by_orbit[hit] = rank
        frontier = np.flatnonzero(hit)
    if not reached.all():
        raise RuntimeError("unreachable orbit after rank propagation")
    return RankAtlas(by_orbit)


# ---- distributions ----

class DistributionRow(NamedTuple):
    rank: int
    orbits: int
    tensors: int
    percent: str


def decimal_string(numerator: int, denominator: int) -> str:
    """numerator/denominator to 4 decimal places, rounded half up, for
    numerator >= 0 and denominator > 0: 10^4 n / d rounded half up is
    floor((2 10^4 n + d) / 2d), in integers."""
    q = (20000 * numerator + denominator) // (2 * denominator)
    return f"{q // 10000}.{q % 10000:04d}"


def percent_string(count: int, total: int) -> str:
    """count/total as a percentage, 4 decimal places, half up, the exact
    rendering the reference tables use (e.g. 162/256 -> '63.2813')."""
    return decimal_string(100 * count, total)


def large_orbit_ranks(large: LargeOrbitAtlas, ranks: RankAtlas) -> np.ndarray:
    """Per-large-orbit ranks (index 0 is the zero orbit, rank 0).  The
    small orbits of one large orbit always share a rank; RuntimeError if
    they do not."""
    out = np.zeros(large.orbit_count + 1, dtype=np.uint8)
    out[large.grouping] = ranks.by_orbit
    mixed = sorted(set(large.grouping[out[large.grouping] != ranks.by_orbit].tolist()))
    if mixed:
        raise RuntimeError(f"large orbits {mixed} mix ranks")
    return out


def rank_distribution(atlas: OrbitAtlas, ranks: RankAtlas,
                      large: LargeOrbitAtlas | None = None) -> list[DistributionRow]:
    """Per-rank orbit and tensor counts with rendered percentages.  The
    zero orbit, slot 0 of every per-orbit array, contributes the rank-0
    row.  With a LargeOrbitAtlas the orbit counts are large-orbit counts;
    tensor counts are unchanged."""
    if large is None:
        by_orbit, sizes = ranks.by_orbit, atlas.sizes
    else:
        by_orbit, sizes = large_orbit_ranks(large, ranks), large.sizes
    orbits = np.bincount(by_orbit)
    tensors = np.zeros(orbits.size, dtype=np.int64)
    np.add.at(tensors, by_orbit, sizes)
    cb = atlas.shape.code_bound
    return [DistributionRow(r, o, t, percent_string(t, cb))
            for r, (o, t) in enumerate(zip(orbits.tolist(), tensors.tolist()))]
