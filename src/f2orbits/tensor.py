"""Tensor formats over GF(2), their codes, and simple tensors.

A tensor of format d1 x ... x dn with entries in {0, 1} is identified with
an N-bit integer, its code, where N = d1*...*dn.  Entries are read off in
lex order by subscripts and the entry at (1, ..., 1) lands in the most
significant bit, so integer order on codes coincides with lex order on
flattenings.  That makes "minimal element of an orbit" the same thing as
"smallest code", which everything downstream relies on.

Entrywise addition over GF(2) is XOR of codes.  simple_code builds the
code of an outer product of one vector per mode, the one construction
that group.basis_images and ranks.enumerate_simple_tensors rest on.  No
classify path reads a code entry by entry: the entry-level oracles
(positions, entries, the mode transpose) live in tests/entry_oracle.py.
All functions here are pure; codes are plain Python ints (N <= 27 keeps
them inside one 32-bit word, slices.CODE, in the array-based modules).
"""

import operator
import re
from dataclasses import dataclass

# Largest supported entry count.  No array of 2^N cells is built: the
# limits are that codes and keys fit slices.CODE, subspace indices
# slices.INDEX, orbit ids spin.CELL and required_bytes the default
# memory cap, and every format of at most 27 entries meets all four.
MAX_ENTRIES = 27

_FORMAT_RE = re.compile(r"^\d+(x\d+)+$")


@dataclass(frozen=True)
class Shape:
    """A tensor format d1 x ... x dn, all di integers >= 2, with N <= MAX_ENTRIES."""

    dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ValueError(f"dimensions must be integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
        if len(dims) < 2:
            raise ValueError(f"need at least two modes, got {dims}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every dimension must be at least 2, got {dims}")
        n = 1
        for d in dims:
            n *= d
        if n > MAX_ENTRIES:
            raise ValueError(
                f"{'x'.join(map(str, dims))} has {n} entries, "
                f"limit is {MAX_ENTRIES}")
        object.__setattr__(self, "_entry_count", n)

    @property
    def n(self) -> int:
        """Mode count."""
        return len(self.dims)

    @property
    def entry_count(self) -> int:
        """N, the number of entries (= bits in a code)."""
        return self._entry_count

    @property
    def code_bound(self) -> int:
        """2^N; codes live in [0, code_bound)."""
        return 1 << self._entry_count

    def __str__(self):
        return "x".join(str(d) for d in self.dims)


def parse_shape(text: str) -> Shape:
    """Parse a format string like "3x3x3" into a Shape."""
    if not _FORMAT_RE.match(text):
        raise ValueError(f"bad format string {text!r}, expected like '3x3x3'")
    return Shape(tuple(int(d) for d in text.split("x")))


# ---- simple tensors ----

def simple_code(dims, vectors) -> int:
    """The code of v1 (x) ... (x) vn, where bit i - 1 of vectors[k - 1] is
    subscript i of mode k.  The last mode varies fastest, subscript 1 of
    each mode in the higher bits."""
    code, width = 1, 1
    for d, v in zip(reversed(dims), reversed(vectors)):
        inner, code = code, 0
        for i in range(d):
            code = code << width | (inner if v >> i & 1 else 0)
        width *= d
    return code

