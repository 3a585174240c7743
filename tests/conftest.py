"""Shared fixtures.

Orbit enumeration for the big formats is the expensive part of the
suite, so completed atlases are cached once per session and reused by
every test that asks for the same format.

per_mode_generators builds the 2n per-mode generators, cycle and
transvection of every mode, straight from gl_generators, each as a
composite with the identity on the other modes.  Closure and partition
checks use them rather than generator_set, so the composites enumeration
runs on are checked against a set that shares nothing with their layout.

accepted_formats lists every dims tuple Shape accepts, in every mode
order.
"""

import pytest

from f2orbits.group import Composite, gl_generators, identity_matrix
from f2orbits.orbits import enumerate_orbits, merge_large_orbits
from f2orbits.ranks import large_orbit_ranks, propagate_ranks, rank_distribution
from f2orbits.report import summarize
from f2orbits.tensor import MAX_ENTRIES, parse_shape


class Engine:
    def __init__(self):
        self._atlas = {}
        self._ranks = {}
        self._large = {}

    def shape(self, fmt):
        return parse_shape(fmt)

    def atlas(self, fmt):
        if fmt not in self._atlas:
            self._atlas[fmt] = enumerate_orbits(parse_shape(fmt))
        return self._atlas[fmt]

    def ranks(self, fmt):
        if fmt not in self._ranks:
            self._ranks[fmt] = propagate_ranks(parse_shape(fmt), self.atlas(fmt))
        return self._ranks[fmt]

    def large(self, fmt):
        if fmt not in self._large:
            self._large[fmt] = merge_large_orbits(parse_shape(fmt), self.atlas(fmt))
        return self._large[fmt]

    def rows(self, fmt, flavor="small"):
        large = self.large(fmt) if flavor == "large" else None
        return summarize(parse_shape(fmt), self.atlas(fmt), self.ranks(fmt),
                         flavor=flavor, large=large)

    def distribution(self, fmt, flavor="small"):
        large = self.large(fmt) if flavor == "large" else None
        return rank_distribution(self.atlas(fmt), self.ranks(fmt), large=large)

    def large_ranks(self, fmt):
        return large_orbit_ranks(self.large(fmt), self.ranks(fmt))


@pytest.fixture(scope="session")
def engine():
    return Engine()


def _per_mode_generators(shape):
    eye = tuple(identity_matrix(d) for d in shape.dims)
    return tuple(Composite(eye[:k] + (m,) + eye[k + 1:])
                 for k, d in enumerate(shape.dims) for m in gl_generators(d))


@pytest.fixture(scope="session")
def per_mode_generators():
    return _per_mode_generators


def _accepted_formats(prefix=(), entries=1):
    if len(prefix) >= 2:
        yield prefix
    for d in range(2, MAX_ENTRIES // entries + 1):
        yield from _accepted_formats(prefix + (d,), entries * d)


@pytest.fixture(scope="session")
def accepted_formats():
    return list(_accepted_formats())
