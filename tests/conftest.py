"""Shared fixtures.

Orbit enumeration for the big formats is the expensive part of the
suite, so completed atlases are cached once per session and reused by
every test that asks for the same format.

ACCEPTED_FORMATS, also the accepted_formats fixture, lists every dims
tuple Shape accepts, in every mode order.  atlas_2x13 enumerates 2x13,
11.2 M subspaces, once for the tests that need it; the session engine
keeps no atlas of it.

reference_apply is the one reference for the group action: it applies a
group element from the definition, one entry at a time, and shares no code
with group.py or slices.py.

traced_peaks traces a call for the two-sided memory figure tests, at
numpy's default buffer size and at 1 MiB, so that a figure fitted to
numpy's hidden ufunc buffers fails at one of them.  A kernel that numpy
buffers nothing for has the same peak at both, up to OBJECT_SLACK.  It
collects garbage before each traced call and keeps the collector off
during it, so that earlier tests' garbage moves neither peak.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from entry_oracle import index_of

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


def reference_apply(shape, element, code):
    """The image of code under a group element, a tuple of matrices, mode
    by mode: acting on mode k, the entry at subscripts idx becomes the sum
    over j of M[j][idx_k] times the entry at idx with subscript j in mode
    k, M[j][i] being bit i - 1 of row j of the matrix."""
    n = shape.entry_count
    indices = [index_of(shape, p) for p in range(n)]
    entry = {idx: (code >> (n - 1 - p)) & 1 for p, idx in enumerate(indices)}
    for k, mat in enumerate(element):
        entry = {idx: sum((mat.rows[j] >> (idx[k] - 1)) & entry[idx[:k] + (j + 1,) + idx[k + 1:]]
                          for j in range(mat.d)) & 1
                 for idx in indices}
    return sum(entry[idx] << (n - 1 - p) for p, idx in enumerate(indices))


def _accepted_formats(prefix=(), entries=1):
    if len(prefix) >= 2:
        yield prefix
    for d in range(2, MAX_ENTRIES // entries + 1):
        yield from _accepted_formats(prefix + (d,), entries * d)


ACCEPTED_FORMATS = list(_accepted_formats())


@pytest.fixture(scope="session")
def accepted_formats():
    return ACCEPTED_FORMATS


@pytest.fixture(scope="session")
def atlas_2x13():
    # its orbit ids, 2 bytes for each of the 11.2 M subspaces (22 MB), live
    # until the session ends; the 157 MB of the enumeration do not
    return enumerate_orbits(parse_shape("2x13"))


# the most the two peaks of traced_peaks differ by when numpy buffers
# nothing: a few small Python objects, which the interpreter's free
# lists supply on one run and not on the other (56 bytes, one tuple, on
# the 2x2x2x2 key build)
OBJECT_SLACK = 256


def traced_peaks(call):
    """tracemalloc's peak over call() at numpy's buffer size and at 1 MiB,
    in that order.  Garbage is collected before each traced call and the
    collector stays off while it runs, so that a collection of earlier
    tests' garbage, and the finalizers it runs, land in neither peak;
    numpy's size and the collector are restored in finally."""
    old, enabled = np.getbufsize(), gc.isenabled()
    peaks = []
    try:
        for size in (old, 1 << 20):
            np.setbufsize(size)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        np.setbufsize(old)
        if enabled:
            gc.enable()
    return peaks
