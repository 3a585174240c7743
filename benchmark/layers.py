"""One in-process pass over the f2orbits layers, for the traced benchmark run.

    python3 benchmark/layers.py --format 3x3x3 --flavor large --seed 1 \
        --snapshot .bench_work/trace.snap --pass time|memory

The pass makes the calls `f2orbits classify` makes, with the CLI's
defaults (cell width 2, strategy auto, default memory cap), plus the
snapshot save and load of `classify --snapshot`, then a throughput
probe of CodeMap.apply_array on a seeded random array:

    compile -> enumerate -> save -> load -> ranks -> merge -> summarize
            -> distribution -> emit -> verify -> apply

`--pass time` wraps one span around each call into a module's public
function.  `--pass memory` runs the allocating calls under tracemalloc
(peak above the starting level, reset around each call) and times
nothing, since tracemalloc slows Python-heavy calls several times over.
Each pass prints one JSON object: the exact counts, and either the
spans, the SHA-256 of the emitted text and any reference mismatches, or
the allocations.  Nothing inside the package is instrumented; the
spans sit around its public calls.
"""

import argparse
import contextlib
import hashlib
import json
import os
import time
import tracemalloc

import numpy as np

from f2orbits.group import (block_permutations, compile_generators,
                            compile_mode_action, generator_set, large_group_order,
                            small_group_order)
from f2orbits.orbits import (DEFAULT_MEM_CAP, enumerate_orbits, load_atlas,
                             merge_large_orbits, save_atlas)
from f2orbits.ranks import propagate_ranks, rank_distribution
from f2orbits.report import emit, summarize, verify_reference
from f2orbits.tensor import parse_shape

MB = 1 << 20
APPLY_CODES = 1 << 22
REPEATS = 5  # for the short calls: cold compile and the apply sweep


class Tracer:
    """Spans kept in memory: name, start and end (seconds since the
    tracer began) and the parent span's name."""

    def __init__(self):
        self.spans = []
        self._origin = time.perf_counter()
        self._stack = ["run"]

    @contextlib.contextmanager
    def span(self, name):
        start = time.perf_counter() - self._origin
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            end = time.perf_counter() - self._origin
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": self._stack[-1]})


class AllocMeter:
    """Peak traced allocation above the level at entry, per call."""

    def __init__(self):
        self.mb = {}

    @contextlib.contextmanager
    def span(self, name):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            self.mb[name] = (tracemalloc.get_traced_memory()[1] - base) / MB


def _cold_programs(shape, meter):
    compile_mode_action.cache_clear()
    with meter.span("group.compile"):
        return compile_generators(shape, generator_set(shape))


def run_pass(fmt, flavor, seed, snapshot, memory):
    shape = parse_shape(fmt)
    meter = AllocMeter() if memory else Tracer()
    if memory:
        tracemalloc.start()
        programs = _cold_programs(shape, meter)
    else:
        # compiling takes well under a millisecond, so it repeats; the
        # last compile leaves the cache warm, as enumerate_orbits would
        for _ in range(REPEATS):
            programs = _cold_programs(shape, meter)

    with meter.span("orbits.enumerate"):
        atlas = enumerate_orbits(shape, cell_width=2, mem_cap=DEFAULT_MEM_CAP)
    counts = {
        "group.generators": len(programs),
        "group.terms": sum(len(p.terms) for p in programs),
        "orbits.gathers": len(programs) * (shape.code_bound - 1),
        "orbits.orbits": atlas.orbit_count,
        "orbits.merge_transposes":
            atlas.orbit_count * (len(block_permutations(shape)) - 1),
    }
    cell_bytes = atlas.assignment.itemsize
    with meter.span("orbits.save"):
        save_atlas(atlas, snapshot)
    del atlas
    with meter.span("orbits.load"):
        atlas = load_atlas(snapshot)
    with meter.span("ranks.propagate"):
        ranks = propagate_ranks(shape, atlas)
    counts["ranks.max_rank"] = ranks.max_rank
    out = {"counts": counts}
    if memory:
        tracemalloc.stop()
        out["alloc_mb"] = meter.mb
        return out

    large = None
    if flavor == "large":
        with meter.span("orbits.merge"):
            large = merge_large_orbits(shape, atlas)
    with meter.span("report.summarize"):
        rows = summarize(shape, atlas, ranks, flavor=flavor, large=large)
    with meter.span("ranks.distribution"):
        dist = rank_distribution(atlas, ranks, large=large)
    with meter.span("report.emit"):
        text = emit(rows, "text") + "\n" + emit(dist, "text")
    with meter.span("report.verify"):
        order = (large_group_order if flavor == "large" else small_group_order)(shape)
        diff = verify_reference(fmt, flavor, rows, group_order=order, distribution=dist)
    counts["orbits.large_orbits"] = large.orbit_count if large else atlas.orbit_count
    counts["report.rows"] = len(rows)
    del atlas, ranks, large

    # the apply probe is not part of a classify run; it comes last so the
    # calls above start from the same allocator state as in the CLI
    codes = np.random.default_rng(seed).integers(
        0, shape.code_bound, size=APPLY_CODES, dtype=np.uint32)
    for _ in range(REPEATS):
        with meter.span("group.apply"):
            for prog in programs:
                prog.apply_array(codes)
    out.update(spans=meter.spans, problems=list(diff.mismatches),
               text_sha256=hashlib.sha256(text.encode()).hexdigest(),
               apply_codes=len(programs) * APPLY_CODES, cell_bytes=cell_bytes,
               snapshot_bytes=os.path.getsize(snapshot))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--format", required=True)
    ap.add_argument("--flavor", choices=("small", "large"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--snapshot", required=True)
    ap.add_argument("--pass", dest="which", choices=("time", "memory"), required=True)
    args = ap.parse_args()
    out = run_pass(args.format, args.flavor, args.seed, args.snapshot,
                   args.which == "memory")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
