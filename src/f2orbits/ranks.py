"""Tensor rank per orbit via rank-1 perturbation breadth-first search.

Adding a simple tensor changes rank by at most one, and every tensor of
rank r >= 1 is a simple tensor away from one of rank r - 1.  So rank =
1 + BFS distance from the rank-1 orbit in the graph that joins orbits O1
and O2 when x XOR s lies in O2 for some x in O1 and simple s, a symmetric
relation.  The group is transitive on simple tensors, which seed_rank_one
checks: given such x and s, take g with g x = c1, the canonical of O1;
then c1 XOR g s lies in O2, and g s is simple.  So O1 and O2 are adjacent
exactly when c1 XOR S lies in O2 for some simple S, and one orbit_id
lookup of every canonical XOR every simple tensor fills a dense K x K
boolean mask, K = orbit count + 1 (at most 697, for 3x2x2x2, over every
format up to 27 entries).  The BFS advances a whole frontier per step as
a reduction over rows of that mask.

The brute-force oracle is independent of all of the above: plain BFS over
XOR-with-a-simple-tensor moves, usable for small formats and small ranks.
"""

import functools
from typing import NamedTuple

import numpy as np

from .orbits import LargeOrbitAtlas, OrbitAtlas
from .tensor import Shape, enumerate_simple_tensors


class RankAtlas:
    """by_orbit[orbit_id] = rank (index 0 is the zero orbit, rank 0)."""

    def __init__(self, by_orbit: np.ndarray):
        self.by_orbit = by_orbit

    @property
    def max_rank(self) -> int:
        return int(self.by_orbit.max())


def seed_rank_one(shape: Shape, atlas: OrbitAtlas) -> RankAtlas:
    """Mark the single orbit holding all simple tensors with rank 1."""
    simples = np.array(enumerate_simple_tensors(shape), dtype=np.uint32)
    ids = atlas.orbit_id(simples)
    if ids.min() != ids.max():
        raise RuntimeError(f"simple tensors fall into {len(set(ids.tolist()))} orbits; "
                           "the group action is broken")
    by_orbit = np.zeros(atlas.orbit_count + 1, dtype=np.uint8)
    by_orbit[int(ids[0])] = 1
    return RankAtlas(by_orbit)


def _orbit_adjacency(atlas: OrbitAtlas) -> np.ndarray:
    """Symmetric K x K boolean mask, K = orbit count + 1, joining orbit i
    to the orbit of canonical_i XOR S for every simple tensor S.  Row and
    column 0 are clear: the zero orbit is rank 0 by definition, not a BFS
    vertex."""
    simples = np.array(enumerate_simple_tensors(atlas.shape), dtype=np.intp)
    adj = np.zeros((atlas.orbit_count + 1,) * 2, dtype=bool)
    adj[np.arange(1, atlas.orbit_count + 1)[:, None],
        atlas.orbit_id(atlas.canonicals[1:, None] ^ simples)] = True
    adj[:, 0] = False
    return adj


def propagate_ranks(shape: Shape, atlas: OrbitAtlas) -> RankAtlas:
    """Assign every orbit its rank by BFS from the rank-1 orbit over
    _orbit_adjacency; see the module docstring."""
    by_orbit = seed_rank_one(shape, atlas).by_orbit
    adj = _orbit_adjacency(atlas)
    frontier = by_orbit == 1
    rank = 1
    while frontier.any():
        rank += 1
        frontier = adj[frontier].any(axis=0) & (by_orbit == 0)
        by_orbit[frontier] = rank
    if by_orbit[1:].min(initial=255) == 0:
        raise RuntimeError("unreachable orbit after rank propagation")
    return RankAtlas(by_orbit)


# ---- independent oracle ----

@functools.lru_cache(maxsize=None)
def _rank_levels(shape: Shape, max_r: int):
    simples = enumerate_simple_tensors(shape)
    known = {0: 0}
    frontier = [0]
    for r in range(1, max_r + 1):
        grown = []
        for c in frontier:
            for s in simples:
                t = c ^ s
                if t not in known:
                    known[t] = r
                    grown.append(t)
        frontier = grown
    return known


def brute_force_rank(shape: Shape, code: int, max_r: int = 3) -> int | None:
    """Smallest r <= max_r with code a XOR of r simple tensors, else None.
    Definition-level search, independent of the orbit machinery; cost grows
    with (number of simple tensors)^max_r."""
    if not 0 <= code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape}")
    return _rank_levels(shape, max_r).get(code)


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
