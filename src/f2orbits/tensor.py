"""Tensor formats over GF(2) and the flattening/encoding bijection.

A tensor of format d1 x ... x dn with entries in {0, 1} is identified with
an N-bit integer, its code, where N = d1*...*dn.  Entries are read off in
lex order by subscripts and the entry at (1, ..., 1) lands in the most
significant bit, so integer order on codes coincides with lex order on
flattenings.  That makes "minimal element of an orbit" the same thing as
"smallest code", which everything downstream relies on.

Entrywise addition over GF(2) is XOR of codes.  All functions here are
pure; codes are plain Python ints (N <= 27 keeps them inside one 32-bit
word for the array-based modules).
"""

import re
from dataclasses import dataclass

# Largest supported entry count.  No array of 2^N cells is built: the
# limits are that codes and subspace keys fit a uint32, orbit ids a
# uint16 and required_bytes the default memory cap, and every format of
# at most 27 entries meets all three.
MAX_ENTRIES = 27

_FORMAT_RE = re.compile(r"^\d+(x\d+)+$")


@dataclass(frozen=True)
class Shape:
    """A tensor format d1 x ... x dn, all di >= 2, with N <= MAX_ENTRIES."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
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
        strides = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        object.__setattr__(self, "_strides", tuple(reversed(strides)))

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

    @property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix strides: position steps per unit of each subscript."""
        return self._strides

    def __str__(self):
        return "x".join(str(d) for d in self.dims)


def parse_shape(text: str) -> Shape:
    """Parse a format string like "3x3x3" into a Shape."""
    if not _FORMAT_RE.match(text):
        raise ValueError(f"bad format string {text!r}, expected like '3x3x3'")
    return Shape(tuple(int(d) for d in text.split("x")))


# ---- positions and entries ----

def position_of(shape: Shape, idx) -> int:
    """Flattening position in [0, N) of a 1-based multi-index."""
    if len(idx) != shape.n:
        raise ValueError(f"index {idx} has wrong length for {shape}")
    p = 0
    for i, d, s in zip(idx, shape.dims, shape.strides):
        if not 1 <= i <= d:
            raise ValueError(f"coordinate {i} out of range 1..{d} in {idx}")
        p += (i - 1) * s
    return p


def index_of(shape: Shape, p: int) -> tuple[int, ...]:
    """Inverse of position_of."""
    if not 0 <= p < shape.entry_count:
        raise ValueError(f"position {p} out of range for {shape}")
    out = []
    for s in shape.strides:
        out.append(p // s + 1)
        p %= s
    return tuple(out)


def get_entry(shape: Shape, code: int, idx) -> int:
    """Entry of the tensor encoded by code at a 1-based multi-index."""
    return (code >> (shape.entry_count - 1 - position_of(shape, idx))) & 1


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


def enumerate_simple_tensors(shape: Shape) -> list[int]:
    """All rank-1 codes, ascending.  Count is prod(2^dk - 1): distinct
    tuples of nonzero vectors give distinct outer products over GF(2).
    v1 (x) ... (x) vn is the AND over k of the mask of vk on mode k, the
    simple code with all-ones vectors on the other modes."""
    ones = [(1 << d) - 1 for d in shape.dims]
    per_mode = [[simple_code(shape.dims, ones[:k] + [v] + ones[k + 1:])
                 for v in range(1, 1 << d)] for k, d in enumerate(shape.dims)]
    codes = set(per_mode[0])
    for mode in per_mode[1:]:
        codes = {c & m for c in codes for m in mode}
    expected = 1
    for d in shape.dims:
        expected *= (1 << d) - 1
    assert len(codes) == expected
    return sorted(codes)


# ---- mode permutations ----

def _check_perm(shape, perm):
    if sorted(perm) != list(range(1, shape.n + 1)):
        raise ValueError(f"{perm} is not a permutation of modes 1..{shape.n}")
    for k, src in enumerate(perm, start=1):
        if shape.dims[src - 1] != shape.dims[k - 1]:
            raise ValueError(
                f"permutation {perm} mixes unequal dimensions in {shape}")


def transpose(shape: Shape, code: int, perm) -> int:
    """Permute modes: result entry at (i1, ..., in) is the input entry at
    (i_perm[1], ..., i_perm[n]).  This is a left action: composing
    transpose by sigma after transpose by tau equals transpose by
    sigma o tau."""
    perm = tuple(perm)
    _check_perm(shape, perm)
    n_bits = shape.entry_count
    out = 0
    for p in range(n_bits):
        idx = index_of(shape, p)
        src = tuple(idx[s - 1] for s in perm)
        if (code >> (n_bits - 1 - position_of(shape, src))) & 1:
            out |= 1 << (n_bits - 1 - p)
    return out
