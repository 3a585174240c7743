"""Command-line front end.

Exit codes: 0 success, 1 mismatch or invalid input, 2 resource refusal
(memory cap, missing reference table), 3 I/O failure.  Phase timings and
memory estimates go to stderr so stdout stays byte-identical between
runs with the same configuration.
"""

import argparse
import json
import os
import sys
import time

from .group import large_group_order, small_group_order
from .orbits import (DEFAULT_MEM_CAP, MemoryCapError, enumerate_orbits, load_atlas,
                     merge_large_orbits, required_bytes, save_atlas)
from .ranks import propagate_ranks, rank_distribution
from .report import (NoReferenceError, check_conjecture_p22, emit, load_reference,
                     summarize, verify_reference)
from .tensor import parse_shape

_GROUP_ORDER = {"small": small_group_order, "large": large_group_order}
# show-orbit prints members this many at a time; a block's ints, strings
# and joined line take under 160 bytes per member
_PRINT_BLOCK = 1 << 12
_PRINT_BLOCK_BYTES = 160 * _PRINT_BLOCK


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
            sp.add_argument("--flavor", choices=tuple(_GROUP_ORDER), default="small",
                            help="small: products of linear groups only; "
                                 "large: also permute equal-dimension modes")
        sp.add_argument("--mem-cap", type=int, default=None, metavar="BYTES",
                        help="refuse runs whose tables exceed this many bytes")

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
    j.add_argument("p", nargs="*", type=int, default=[4, 5, 6])
    j.add_argument("--mem-cap", type=int, default=None, metavar="BYTES")

    s = sub.add_parser("show-orbit", help="inspect the orbit of one code")
    common(s, flavor=False)
    s.add_argument("--code", required=True, type=int)
    s.add_argument("--members-limit", type=int, default=64,
                   help="print members only for orbits up to this size")
    return p


def _resolve_cap(args):
    if getattr(args, "mem_cap", None) is not None:
        return args.mem_cap
    env = os.environ.get("F2TO_MEM_CAP")
    if env is None:
        return DEFAULT_MEM_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"F2TO_MEM_CAP must be a whole number of bytes, got {env!r}") from None


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
    large flavor, and summarize.  Returns (atlas, ranks, rows, dist)."""
    est = required_bytes(shape)
    print(f"estimated table bytes: {est}", file=sys.stderr)
    phases = _Phases()

    if snapshot and os.path.exists(snapshot):
        atlas = load_atlas(snapshot, shape, mem_cap=cap)
        phases.mark("snapshot load")
    else:
        atlas = enumerate_orbits(shape, mem_cap=cap)
        phases.mark("enumeration")
        if snapshot:
            save_atlas(atlas, snapshot)
            phases.mark("snapshot save")

    ranks = propagate_ranks(shape, atlas)
    phases.mark("ranks")
    large = None
    if flavor == "large":
        large = merge_large_orbits(shape, atlas)
        phases.mark("merge")
    rows = summarize(shape, atlas, ranks, flavor=flavor, large=large)
    dist = rank_distribution(atlas, ranks, large=large)
    return atlas, ranks, rows, dist


def cmd_classify(args):
    shape = parse_shape(args.format)
    cap = _resolve_cap(args)
    _, _, rows, dist = _compute(shape, cap, args.flavor, args.snapshot)
    if args.emit == "json":
        doc = {
            "format": str(shape),
            "flavor": args.flavor,
            "group_order": _GROUP_ORDER[args.flavor](shape),
            "orbits": len(rows),
            "rows": [row.__dict__ for row in rows],
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
    # the reference lookup comes first so an unknown format is reported as
    # a missing reference, not a shape error
    load_reference(args.format, args.flavor)
    shape = parse_shape(args.format)
    cap = _resolve_cap(args)
    _, _, rows, dist = _compute(shape, cap, args.flavor)
    diff = verify_reference(args.format, args.flavor, rows,
                            group_order=_GROUP_ORDER[args.flavor](shape),
                            distribution=dist)
    if diff.ok:
        sys.stdout.write(diff.render())
        return 0
    sys.stderr.write(diff.render())
    return 1


def cmd_conjecture(args):
    cap = _resolve_cap(args)
    failed = False
    for p in args.p:
        if p < 4:
            raise ValueError(f"stabilization is stated for p >= 4, got p={p}")
        shape = parse_shape(f"{p}x2x2")
        _, _, rows, _ = _compute(shape, cap)
        rep = check_conjecture_p22(p, shape, rows)
        verdict = "pass" if rep.ok else "FAIL"
        print(f"p={p}: {sum(rep.forms_match)}/10 canonical forms match "
              f"({verdict}); rank-4 orbit {rep.rank4_size}/2^{4 * p} "
              f"= {rep.fraction_str}")
        failed = failed or not rep.ok
    return 1 if failed else 0


def cmd_show_orbit(args):
    shape = parse_shape(args.format)
    code = args.code
    if not 0 < code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape} "
                         f"(1..{shape.code_bound - 1})")
    cap = _resolve_cap(args)
    atlas, _, rows, _ = _compute(shape, cap)
    orbit_id = atlas.orbit_id(code)
    canonical = int(atlas.canonicals[orbit_id])
    row = next(r for r in rows if r.canonical_code == canonical)
    print(f"code {code} in {shape}: orbit #{row.ordinal}, rank {row.rank}, "
          f"size {row.size}, canonical {row.canonical_bits} "
          f"(code {row.canonical_code})")
    if row.size <= args.members_limit:
        need = required_bytes(shape) + atlas.member_bytes(orbit_id) + _PRINT_BLOCK_BYTES
        if need > cap:
            raise MemoryCapError(need, cap)
        members = atlas.members(orbit_id)
        sys.stdout.write("members:")
        for lo in range(0, members.size, _PRINT_BLOCK):
            sys.stdout.write(" " + " ".join(map(str, members[lo:lo + _PRINT_BLOCK].tolist())))
        sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "classify": cmd_classify,
        "verify": cmd_verify,
        "conjecture": cmd_conjecture,
        "show-orbit": cmd_show_orbit,
    }[args.command]
    try:
        return handler(args)
    except (MemoryCapError, NoReferenceError) as exc:
        print(f"f2orbits: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"f2orbits: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"f2orbits: {exc}", file=sys.stderr)
        return 3


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
