"""Command-line front end.

Exit codes: 0 success; 1 mismatch or invalid input, such as a memory cap
that is not a whole number of bytes; 2 resource refusal (memory cap,
missing reference table) or a usage error argparse reports (a missing or
unknown option, an invalid choice, a non-integer --code or p); 3 I/O
failure.  Phase timings and memory estimates go to stderr so stdout
stays byte-identical between runs with the same configuration.

Each command imports the engine when it runs, so help and usage errors
answer before the engine and numpy load.
"""

import argparse
import gc
import os
import sys
import time

# show-orbit prints members this many at a time; a block's ints, strings
# and joined line take under _PRINT_BYTES per member
_PRINT_BLOCK = 1 << 12
_PRINT_BYTES = 160


def _build_parser():
    p = argparse.ArgumentParser(
        prog="f2orbits",
        description="Classify tensors over the two-element field by "
                    "group orbits and compute the rank of every orbit.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, flavor=True):
        sp.add_argument("--format", required=True, metavar="DxDx...",
                        help="tensor format, e.g. 3x3x3")
        if flavor:
            sp.add_argument("--flavor", choices=("small", "large"), default="small",
                            help="small: products of linear groups only; "
                                 "large: also permute equal-dimension modes")

    c = sub.add_parser("classify", help="enumerate orbits and report the table")
    common(c)
    c.add_argument("--emit", choices=("text", "csv", "json"), default="text")
    c.add_argument("--output", metavar="PATH", help="write report here instead of stdout")
    c.add_argument("--snapshot", metavar="PATH",
                   help="reuse this orbit snapshot if it exists, "
                        "otherwise compute and save it")

    v = sub.add_parser("verify", help="compare computed tables against the references")
    common(v)

    j = sub.add_parser("conjecture",
                       help="check the stable px2x2 canonical forms and the "
                            "rank-4 orbit fraction")
    j.add_argument("p", nargs="*", type=int, default=[4, 5, 6],
                   help="first-mode dimensions to check (default 4 5 6)")

    s = sub.add_parser("show-orbit", help="inspect the orbit of one code")
    common(s, flavor=False)
    s.add_argument("--code", required=True, type=int)
    s.add_argument("--members-limit", type=int, default=64,
                   help="print members only for orbits up to this size")
    for sp in sub.choices.values():
        sp.add_argument("--mem-cap", default=None, metavar="BYTES",
                        help="refuse runs whose tables exceed this many bytes")
    return p


def _resolve_cap(args):
    from .orbits import DEFAULT_MEM_CAP
    if args.mem_cap is not None:
        name, value = "--mem-cap", args.mem_cap
    elif (value := os.environ.get("F2TO_MEM_CAP")) is not None:
        name = "F2TO_MEM_CAP"
    else:
        return DEFAULT_MEM_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{name} must be a whole number of bytes, got {value!r}")
    return cap


class _Phases:
    def __init__(self):
        self._last = time.perf_counter()

    def mark(self, label):
        now = time.perf_counter()
        print(f"{label}: {now - self._last:.2f}s", file=sys.stderr)
        self._last = now


def _compute(shape, cap, flavor="small", snapshot=None):
    """The one classification pipeline: load the snapshot or enumerate
    (saving the snapshot if asked), rank, merge under mode swaps for the
    large flavor, and summarize.  Each phase checks its own figure against
    the cap before it allocates: required_bytes, atlas_bytes for a load,
    and rank_bytes, atlas included.  Returns (atlas, rows, dist)."""
    from .orbits import (_check_cap, enumerate_orbits, load_atlas, merge_large_orbits,
                         required_bytes, save_atlas)
    from .ranks import propagate_ranks, rank_bytes, rank_distribution
    from .report import summarize
    phases = _Phases()
    if snapshot and os.path.exists(snapshot):
        atlas = load_atlas(snapshot, shape, mem_cap=cap)
        phases.mark("snapshot load")
    else:
        print(f"estimated table bytes: {required_bytes(shape)}", file=sys.stderr)
        atlas = enumerate_orbits(shape, mem_cap=cap)
        phases.mark("enumeration")
        if snapshot:
            save_atlas(atlas, snapshot)
            phases.mark("snapshot save")

    need = rank_bytes(atlas)
    print(f"estimated rank bytes: {need}", file=sys.stderr)
    _check_cap(need, cap)
    ranks = propagate_ranks(shape, atlas)
    phases.mark("ranks")
    large = None
    if flavor == "large":
        large = merge_large_orbits(shape, atlas)
        phases.mark("merge")
    rows = summarize(shape, atlas, ranks, flavor=flavor, large=large)
    dist = rank_distribution(atlas, ranks, large=large)
    return atlas, rows, dist


def _group_order(flavor, shape):
    from .group import large_group_order, small_group_order
    return {"small": small_group_order, "large": large_group_order}[flavor](shape)


def cmd_classify(args):
    from .report import emit
    from .tensor import parse_shape
    shape = parse_shape(args.format)
    cap = _resolve_cap(args)
    _, rows, dist = _compute(shape, cap, args.flavor, args.snapshot)
    if args.emit == "json":
        import json
        doc = {
            "format": str(shape),
            "flavor": args.flavor,
            "group_order": _group_order(args.flavor, shape),
            "orbits": len(rows),
            "rows": [row._asdict() for row in rows],
            "distribution": [d._asdict() for d in dist],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = emit(rows, args.emit) + "\n" + emit(dist, args.emit)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    from .report import load_reference, verify_reference
    from .tensor import parse_shape
    # the reference lookup comes first so an unknown format is reported as
    # a missing reference, not a shape error
    load_reference(args.format, args.flavor)
    shape = parse_shape(args.format)
    cap = _resolve_cap(args)
    _, rows, dist = _compute(shape, cap, args.flavor)
    diff = verify_reference(args.format, args.flavor, rows,
                            group_order=_group_order(args.flavor, shape),
                            distribution=dist)
    if diff.ok:
        sys.stdout.write(diff.render())
        return 0
    sys.stderr.write(diff.render())
    return 1


def cmd_conjecture(args):
    from .report import check_conjecture_p22
    from .tensor import parse_shape
    cap = _resolve_cap(args)
    failed = False
    for p in args.p:
        if p < 4:
            raise ValueError(f"stabilization is stated for p >= 4, got p={p}")
        shape = parse_shape(f"{p}x2x2")
        _, rows, _ = _compute(shape, cap)
        rep = check_conjecture_p22(shape, rows)
        verdict = "pass" if rep.ok else "FAIL"
        print(f"p={p}: {sum(rep.forms_match)}/{len(rep.forms_match)} canonical forms "
              f"match ({verdict}); rank-4 orbit {rep.rank4_size}/2^{shape.entry_count} "
              f"= {rep.fraction_str}")
        failed = failed or not rep.ok
    return 1 if failed else 0


def cmd_show_orbit(args):
    from .orbits import _check_cap
    from .tensor import parse_shape
    shape = parse_shape(args.format)
    code = args.code
    if not 0 < code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape} "
                         f"(1..{shape.code_bound - 1})")
    cap = _resolve_cap(args)
    atlas, rows, _ = _compute(shape, cap)
    orbit_id = atlas.orbit_id(code)
    row = next(r for r in rows if r.canonical_code == atlas.canonicals[orbit_id])
    del rows    # a listing holds the atlas and this one row
    print(f"code {code} in {shape}: orbit #{row.ordinal}, rank {row.rank}, "
          f"size {row.size}, canonical {row.canonical_bits} "
          f"(code {row.canonical_code})")
    if row.size <= args.members_limit:
        _check_cap(atlas.nbytes + atlas.member_bytes(orbit_id)
                   + _PRINT_BYTES * min(row.size, _PRINT_BLOCK), cap)
        members = atlas.members(orbit_id)
        sys.stdout.write("members:")
        for lo in range(0, members.size, _PRINT_BLOCK):
            sys.stdout.write(" " + " ".join(map(str, members[lo:lo + _PRINT_BLOCK].tolist())))
        sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .orbits import MemoryCapError
    from .report import NoReferenceError
    handler = {
        "classify": cmd_classify,
        "verify": cmd_verify,
        "conjecture": cmd_conjecture,
        "show-orbit": cmd_show_orbit,
    }[args.command]
    try:
        return handler(args)
    except (MemoryCapError, NoReferenceError, ValueError, OSError) as exc:
        print(f"f2orbits: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 3 if isinstance(exc, OSError) else 2


def console_entry():
    """The process entry.  Once main returns, every live object moves to
    the collector's permanent generation, which the interpreter's forced
    collection at exit does not visit: the process is about to end, and
    that pass over numpy's objects costs more than the engine's own work
    on a snapshot.  The collector stays enabled, and main, which tests and
    library callers run in-process, leaves it as it found it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
