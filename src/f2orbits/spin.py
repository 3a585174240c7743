"""The spin: one orbit id per subspace, from the permutations that the
generators induce on the subspaces (orbits.py gives the setting and why
the ids ascend with the canonical form).

The spin sweeps the subspaces once in ascending order, many orbits per
pass.  Every batch takes the next BATCH_MAX unassigned subspaces as its
starts (fewer only at the end), from one dimension or several, and
spreads them all breadth first, start j writing the provisional label
first + j, so each cell is visited once and the orbit ids must stay
BATCH_MAX below SENTINEL.  An image that already holds another label of
the batch links the two starts in a bool mask, and each class of linked
starts is one orbit, whose id goes to its least start.  The width of
the ids, CELL, is set here only, and spin_bytes counts the buffers.
"""

import numpy as np

from .slices import CHUNK, INDEX

CELL = np.dtype(np.uint16)
SENTINEL = int(np.iinfo(CELL).max)
BATCH_MAX = 256


def spin(perms):
    """The orbit id of every subspace (CELL, the zero subspace at index 0
    in orbit 0), for permutations of the subspaces.  Id i first occurs at
    orbit i's least subspace, so the ids alone give each orbit's
    canonical."""
    assignment = np.full(perms[0].size, SENTINEL, CELL)
    assignment[0] = 0
    queue = np.empty(assignment.size, INDEX)
    count, pos = 1, 1
    while (starts := _next_unassigned(assignment, pos)).size:
        count += int(_spin_batch(assignment, count, starts, perms, queue).sum())
        pos = int(starts[-1]) + 1
    return assignment


def spin_bytes(s, m):
    """Peak bytes spin allocates over s subspaces with the m INDEX
    permutations it reads: per subspace those, a CELL id and an INDEX
    queue cell, per chunk item 2 CELL, 2 INDEX and 12 bytes, and the
    min(s, BATCH_MAX)^2 bool link mask of a batch with a temporary."""
    cell, index = CELL.itemsize, INDEX.itemsize
    return ((cell + index * (m + 1)) * s + (2 * cell + 2 * index + 12) * min(s, CHUNK)
            + 2 * min(s, BATCH_MAX) ** 2)


def _next_unassigned(assignment, pos):
    """Up to BATCH_MAX indices of unassigned cells from pos on, ascending."""
    found, count = [np.empty(0, np.intp)], BATCH_MAX
    for lo in range(pos, assignment.size, CHUNK):
        hits = np.flatnonzero(assignment[lo:lo + CHUNK] == SENTINEL)
        found.append(hits[:count] + lo)
        count -= found[-1].size
        if not count:
            break
    return np.concatenate(found)


def _least_linked(link):
    """least[i] = the least label joined to label i by a chain of links,
    for an n x n bool mask of links in either direction, which is
    overwritten: each round takes the least label over every link, then
    jumps pointers.  The labels take the narrowest dtype, so a round
    allocates about n^2 bytes."""
    link |= link.T.copy()    # numpy would buffer the transposed view, by np.setbufsize
    least = np.arange(len(link), dtype=np.min_scalar_type(len(link) - 1))
    while True:
        step = np.minimum(np.where(link, least, len(link) - 1).min(axis=1), least)
        step = step[step]
        if (step == least).all():
            return least
        least = step


def _spin_batch(assignment, first, starts, perms, queue):
    """Spin the orbits of the unassigned starts in one breadth-first pass
    with queue as the work list, start j writing the label first + j,
    then give each class of linked starts one id, ascending from first.
    Returns a mask of the starts least in their orbit.  The permutations
    are bijections, so the images of a duplicate-free chunk are
    duplicate-free, and marking cells between permutations filters
    overlap without any sorting."""
    nb = starts.size
    if first + nb > SENTINEL:
        raise RuntimeError(f"orbit ids {first}..{first + nb - 1} reach the sentinel "
                           f"{SENTINEL}: too many orbits for a {CELL.itemsize}-byte cell")
    assignment[starts] = np.arange(first, first + nb)
    queue[:nb] = starts
    link = np.zeros((nb, nb), bool)
    head, tail = 0, nb
    while head < tail:
        stop = min(tail, head + CHUNK)
        frontier = queue[head:stop]
        label = assignment[frontier]
        for perm in perms:
            img = perm[frontier]
            cell = assignment[img]
            new = cell == SENTINEL
            fresh = img[new]
            assignment[fresh] = label[new]
            old = ~new
            link[label[old] - first, cell[old] - first] = True
            queue[tail:tail + fresh.size] = fresh
            tail += fresh.size
        head = stop
    least = _least_linked(link)
    roots = least == np.arange(nb)
    if not roots.all():
        remap = (first - 1 + np.cumsum(roots))[least].astype(CELL)
        for lo in range(0, tail, CHUNK):
            cells = queue[lo:min(lo + CHUNK, tail)]
            assignment[cells] = remap[assignment[cells] - first]
    return roots
