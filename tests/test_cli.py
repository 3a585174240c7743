"""Command-line behavior: outputs, exit codes, snapshots, caps."""

import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from f2orbits.cli import _PRINT_BLOCK, _PRINT_BYTES, _compute, main
from f2orbits.orbits import DEFAULT_MEM_CAP, atlas_bytes, required_bytes, save_atlas
from f2orbits.ranks import rank_bytes
from f2orbits.tensor import Shape, parse_shape


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "--format", "2x2x2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["1", "1", "27", ".......1"]
    assert "rank 3:   2 orbits  66 tensors" in out
    assert "enumeration" in err
    assert "estimated table bytes" in err


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--format", "2x2x2", "--emit", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ordinal,rank,size,canonical_bits,canonical_code"
    assert lines[1] == "1,1,27,.......1,1"
    assert "rank,orbits,tensors,percent" in lines
    assert lines[-1] == "3,2,66,25.7813"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--format", "2x2x2",
                       "--flavor", "large", "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "2x2x2"
    assert doc["flavor"] == "large"
    assert doc["group_order"] == 1296
    assert doc["orbits"] == 5
    assert len(doc["rows"]) == 5
    assert doc["rows"][0] == {"ordinal": 1, "rank": 1, "size": 27,
                              "canonical_bits": ".......1", "canonical_code": 1}
    assert list(doc["distribution"][0]) == ["rank", "orbits", "tensors", "percent"]
    assert doc["distribution"][0]["percent"] == "0.3906"
    assert sum(d["tensors"] for d in doc["distribution"]) == 256


def test_classify_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--format", "3x2x2", "--emit", "csv")
    _, second, _ = run(capsys, "classify", "--format", "3x2x2", "--emit", "csv")
    assert first == second


def test_classify_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "classify", "--format", "2x2x2",
                       "--emit", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "1,1,27,.......1,1"


def test_mem_cap_env(capsys, monkeypatch):
    # an explicit flag wins over the environment
    monkeypatch.setenv("F2TO_MEM_CAP", "1000")
    code, out, _ = run(capsys, "classify", "--format", "3x3x2", "--mem-cap", str(1 << 30))
    assert code == 0
    assert "rank 3:" in out


def failure(cause, command, code, *err, edit=None):
    """A failing command: the cause it backs, spelled as in README's row
    for its exit code; the command, after any NAME=value environment
    settings, where {dir} is a fresh directory; an edit (subspace index,
    old id, new id, fresh CRC) of the 2x2x2 snapshot {dir}/a.snap that a
    --snapshot reads; its exit code and fragments of its stderr."""
    return cause, command, code, err, edit


SNAP = "--snapshot {dir}/a.snap"
LOAD = f"classify --format 2x2x2 {SNAP}"
BAD_SNAPSHOT = "a `--snapshot` file that fails one of its checks"
NOT_BYTES = "a `--mem-cap` or `F2TO_MEM_CAP` that is not a whole number of bytes"
NO_REFERENCE = "no reference table for the requested format"
RANGE, CAP, NON_INTEGER = "out-of-range code", "memory cap exceeded", "a non-integer `--code` or p"
FAILURES = {
    # the stored 31-orbit row, kept verbatim, against the 30 computed
    "mismatch": failure("verification or conjecture mismatch",
                        "verify --format 2x2x2x2 --flavor large", 1,
                        "orbit count: computed 30 (with zero orbit) != reference 31"),
    "one-mode-dim": failure("bad format", "classify --format 1x2x2", 1, "at least 2"),
    "32-entries": failure("bad format", "classify --format 4x4x2", 1, "32 entries, limit is 27"),
    "code-300": failure(RANGE, "show-orbit --format 2x2x2 --code 300", 1, "300 out of range"),
    "code-0": failure(RANGE, "show-orbit --format 2x2x2 --code 0", 1, "out of range"),
    # the code is checked before the cap or any enumeration
    "code-0-cap": failure(RANGE, "show-orbit --format 3x3x3 --code 0 --mem-cap 1", 1,
                          "out of range"),
    "p-3": failure("p < 4", "conjecture 3", 1, "p >= 4"),
    # the flag and the environment share one parser: a cap that is not a
    # number is invalid input, not an argparse usage error
    "cap-minus-1": failure("such as `-1`", "classify --format 2x2x2 --mem-cap -1", 1,
                           "--mem-cap", "'-1'"),
    "cap-abc": failure("or `abc`", "classify --format 2x2x2 --mem-cap abc", 1,
                       "--mem-cap", "'abc'"),
    "env-lots": failure(NOT_BYTES, "F2TO_MEM_CAP=lots classify --format 3x3x2", 1,
                        "F2TO_MEM_CAP", "'lots'"),
    "env-minus-3": failure(NOT_BYTES, "F2TO_MEM_CAP=-3 classify --format 2x2x2", 1,
                           "F2TO_MEM_CAP", "'-3'"),
    # the shape is checked before the cap, so a cap too small for either
    # format still reports the mismatch, not the other format's table
    "snap-format": failure(BAD_SNAPSHOT, f"classify --format 3x2x2 {SNAP}", 1,
                           "holds 2x2x2, expected 3x2x2"),
    "snap-format-cap": failure(BAD_SNAPSHOT, f"classify --format 3x2x2 {SNAP} --mem-cap 1", 1,
                               "holds 2x2x2, expected 3x2x2"),
    # the id of the zero subspace becomes 1, under the old CRC and a fresh one
    "snap-crc": failure(BAD_SNAPSHOT, LOAD, 1, "fails its CRC check", edit=(0, 0, 1, False)),
    "snap-zero-id": failure(BAD_SNAPSHOT, LOAD, 1, "orbit id 1 at the zero subspace",
                            edit=(0, 0, 1, True)),
    # the last of the 51 subspace ids (orbit 5) moved to a new orbit 8: the
    # ids ascend and skip nothing, but orbit 5 keeps 8 of its 9 planes,
    # and 8 does not divide the order 36 of GL(2,2) x GL(2,2)
    "snap-split-orbit": failure(BAD_SNAPSHOT, LOAD, 1, "orbit 5 has 8 subspaces, which does not "
                                "divide |G'| = 36", edit=(50, 5, 8, True)),
    # plane 25 moved from orbit 4 to orbit 2, whose 6 lines span 18
    # tensors: orbit 2 then has 24 and orbit 4 12, both divisors of 216, so
    # a check of sizes alone loads it, but an orbit keeps to one dimension
    "snap-two-dims": failure("ids that give an orbit subspaces of two dimensions", LOAD, 1,
                             "orbit 2 has subspaces of more than one dimension",
                             edit=(25, 4, 2, True)),
    "cap-1000": failure(CAP, "classify --format 3x3x2 --mem-cap 1000", 2, "cap is 1000 bytes"),
    "env-1000": failure(CAP, "F2TO_MEM_CAP=1000 classify --format 3x3x2", 2, "cap is 1000 bytes"),
    # 0 is a valid cap, which refuses every run
    "cap-0": failure(CAP, "classify --format 2x2x2 --mem-cap 0", 2, "cap is 0 bytes"),
    "no-reference": failure(NO_REFERENCE, "verify --format 9x9x9", 2, "no reference"),
    # flavor matters: only the large table exists for this format
    "small-only": failure(NO_REFERENCE, "verify --format 2x2x2x2", 2, "2x2x2x2 (small group)"),
    # argparse's exits, the only ones that print its usage line
    "no-command": failure("a usage error that argparse reports with its usage line", "", 2,
                          "required: command"),
    "missing-option": failure("a missing or unknown option", "classify", 2, "required: --format"),
    "unknown-option": failure("a missing or unknown option", "classify --format 2x2x2 --bogus", 2,
                              "unrecognized arguments: --bogus"),
    "invalid-choice": failure("an invalid choice", "classify --format 2x2x2 --emit yaml", 2,
                              "invalid choice: 'yaml'"),
    "code-1.5": failure(NON_INTEGER, "show-orbit --format 2x2x2 --code 1.5", 2, "value: '1.5'"),
    "p-four": failure(NON_INTEGER, "conjecture four", 2, "invalid int value: 'four'"),
    "output": failure("could not read or write a file", "classify --format 2x2x2 --output {dir}",
                      3, "f2orbits:"),
}


@pytest.mark.parametrize("cause, command, code, err, edit", FAILURES.values(), ids=FAILURES)
def test_exit_contract(capsys, tmp_path, monkeypatch, engine, cause, command, code, err, edit):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert re.search(rf"^\| {code} \| .*{re.escape(cause)}.* \|$", readme, re.M)
    monkeypatch.delenv("F2TO_MEM_CAP", raising=False)
    argv = [arg.format(dir=tmp_path) for arg in command.split()]
    while argv and "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    snap = tmp_path / "a.snap"
    if "--snapshot" in argv:
        save_atlas(engine.atlas("2x2x2"), str(snap))
    if edit:
        # 2-byte ids follow the 9 bytes of magic, version, mode count and
        # dims; the CRC is the last 4 bytes
        index, old, new, reseal = edit
        blob = bytearray(snap.read_bytes())
        assert blob[9 + 2 * index:11 + 2 * index] == old.to_bytes(2, "little")
        blob[9 + 2 * index:11 + 2 * index] = new.to_bytes(2, "little")
        if reseal:
            blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
        snap.write_bytes(bytes(blob))
    try:
        exit_code, usage = main(argv), False
    except SystemExit as exc:
        exit_code, usage = exc.code, True
    out = capsys.readouterr()
    assert (exit_code, out.out, "usage: f2orbits" in out.err) == (code, "", usage)
    assert [fragment for fragment in err if fragment not in out.err] == []


def test_snapshot_reuse(capsys, tmp_path):
    snap = tmp_path / "a.snap"
    code, first, err1 = run(capsys, "classify", "--format", "3x2x2",
                            "--snapshot", str(snap))
    assert code == 0 and snap.exists()
    assert "snapshot save" in err1
    code, second, err2 = run(capsys, "classify", "--format", "3x2x2",
                             "--snapshot", str(snap))
    assert code == 0
    assert "snapshot load" in err2 and "enumeration" not in err2
    assert first == second


def test_snapshot_load_mem_cap(capsys, tmp_path, monkeypatch, engine):
    # a snapshot load is checked against its own figure, atlas_bytes, from
    # the flag or from the environment; on 2x2x2 ranking asks more, so a
    # cap of exactly the load's bytes passes the load and is refused
    # before ranking
    need = atlas_bytes(Shape((2, 2, 2)))
    ranking = rank_bytes(engine.atlas("2x2x2"))
    assert ranking > need
    snap = tmp_path / "a.snap"
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0
    code, out, err = run(capsys, "classify", "--format", "2x2x2",
                         "--snapshot", str(snap), "--mem-cap", "1")
    assert code == 2 and out == ""
    assert f"{need} bytes" in err and "cap is 1 bytes" in err
    monkeypatch.setenv("F2TO_MEM_CAP", str(need - 1))
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 2
    monkeypatch.setenv("F2TO_MEM_CAP", str(need))
    code, out, err = run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))
    assert code == 2 and out == ""
    assert "snapshot load" in err and f"{ranking} bytes" in err
    monkeypatch.setenv("F2TO_MEM_CAP", str(ranking))
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0


def test_snapshot_load_fits_below_the_enumeration(capsys, tmp_path):
    # a 3x3x3 load and its ranking fit in 8 MB, which an enumeration
    # (12.2 MB) does not, and print what the default cap prints
    snap = str(tmp_path / "a.snap")
    argv = ("classify", "--format", "3x3x3", "--flavor", "large", "--snapshot", snap)
    assert required_bytes(Shape((3, 3, 3))) > 8_000_000
    assert run(capsys, *argv, "--mem-cap", "8000000")[0] == 2
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    code, loaded, err = run(capsys, *argv, "--mem-cap", "8000000")
    assert code == 0 and "snapshot load" in err
    assert loaded == cold


def test_rank_phase_is_capped(capsys):
    # 6x2x2 enumerates within 27,908 bytes but ranking needs more, so
    # that cap is refused before ranking, with nothing on stdout
    assert required_bytes(Shape((6, 2, 2))) == 27908
    code, out, err = run(capsys, "classify", "--format", "6x2x2", "--mem-cap", "27908")
    assert code == 2 and out == ""
    assert "enumeration" in err and "cap is 27908 bytes" in err


def test_readme_memory_figures(tmp_path, engine):
    # the figures README's Memory section quotes, at its rounding: MB and
    # KB are 10^6 and 10^3 bytes
    def mb(figure, places=1):
        return round(figure / 1e6, places)

    for fmt, enumerate_mb, load_mb, rank_mb in (("3x3x3", 12.2, 1.9, 2.7),
                                                ("3x2x2x2", 2.5, 0.4, 1.8)):
        shape = parse_shape(fmt)
        assert mb(required_bytes(shape)) == enumerate_mb, fmt
        assert mb(atlas_bytes(shape)) == load_mb, fmt
        assert mb(rank_bytes(engine.atlas(fmt))) == rank_mb, fmt
    assert round(required_bytes(parse_shape("6x2x2")) / 1e3) == 28
    assert round(rank_bytes(engine.atlas("6x2x2")) / 1e3) == 431
    assert round(required_bytes(parse_shape("13x2")) / 1e3) == 17
    assert mb(rank_bytes(engine.atlas("13x2"))) == 1.9
    assert mb(required_bytes(parse_shape("2x13")), 0) == 157
    assert mb(required_bytes(parse_shape("2x3x2x2")), 0) == 40
    snap = tmp_path / "3x3x3.snap"
    save_atlas(engine.atlas("3x3x3"), str(snap))
    assert mb(snap.stat().st_size, 2) == 1.66


def test_compute_peak_within_checked_figures(tmp_path, monkeypatch, engine):
    # tracemalloc's peak over the whole pipeline (enumeration or snapshot
    # load, ranks, merge and summary) stays within the largest figure
    # _compute checks against the cap: required_bytes for an enumeration
    # or atlas_bytes for a load, or rank_bytes where ranking needs more,
    # as on 6x2x2, 13x2 and 4x3x2 and after every load
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    for fmt, flavor in (("2x2x2", "small"), ("6x2x2", "small"), ("13x2", "small"),
                        ("4x3x2", "small"), ("3x2x2x2", "large"), ("3x3x3", "large")):
        shape, atlas = parse_shape(fmt), engine.atlas(fmt)
        snap = str(tmp_path / f"{fmt}.snap")
        save_atlas(atlas, snap)
        for snapshot, first in ((None, required_bytes), (snap, atlas_bytes)):
            figure = max(first(shape), rank_bytes(atlas))
            (computed, rows, dist), peak = traced_peak(
                lambda: _compute(shape, DEFAULT_MEM_CAP, flavor, snapshot))
            assert peak <= figure, (fmt, snapshot, peak, figure)
            # the zero orbit has a distribution entry but no row
            assert computed.orbit_count == atlas.orbit_count
            assert len(rows) + 1 == sum(d.orbits for d in dist)


def test_cell_width_option_is_gone(capsys):
    # cells are always 2 bytes, so no subcommand offers a width
    for command in ("classify", "verify", "conjecture", "show-orbit"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--cell-width" not in capsys.readouterr().out


def test_every_subcommand_explains_its_options(capsys):
    # --mem-cap is declared once, with its help, for all four subcommands,
    # and conjecture explains its positional p (whitespace as argparse wraps it)
    texts = {}
    for command in ("classify", "verify", "conjecture", "show-orbit"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        texts[command] = " ".join(capsys.readouterr().out.split())
        assert "--mem-cap BYTES refuse runs whose tables exceed this many bytes" in texts[command]
    assert "p first-mode dimensions to check (default 4 5 6)" in texts["conjecture"]


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--format", "4x2x2")
    assert code == 0
    assert "pass, 10 rows matched" in out


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "4")
    assert code == 0
    assert "10/10 canonical forms match (pass)" in out
    assert "20160/2^16 = 0.3076" in out


def test_conjecture_beyond_27_entries(capsys):
    # p = 4..6 fit the 27-entry limit; 7x2x2 has 28 entries and exits 1
    # after the p it could check
    code, out, err = run(capsys, "conjecture", "6", "7")
    assert code == 1
    assert out.startswith("p=6: 10/10 canonical forms match (pass)")
    assert "p=7" not in out
    assert "7x2x2 has 28 entries, limit is 27" in err


def test_conjecture_reads_the_stored_4x2x2_table(capsys, monkeypatch):
    # the stable forms are the rows of the 4x2x2 reference: a stored row
    # 10 of rank 3 fails the rank-4 form at every p, and a stored table
    # one row short or one row long fails the row the other side lacks,
    # through the verdict line and exit 1, not a traceback
    import f2orbits.report as report
    stored = report.load_reference
    for edit, score in ((lambda rows: rows[:9] + ((3,) + rows[9][1:],), "9/10"),
                        (lambda rows: rows[:9], "9/10"),
                        (lambda rows: rows + rows[9:], "10/11")):
        def edited(format_str, flavor="small"):
            ref = stored(format_str, flavor)
            if format_str != "4x2x2":
                return ref
            return dataclasses.replace(ref, rows=edit(ref.rows))

        monkeypatch.setattr(report, "load_reference", edited)
        code, out, _ = run(capsys, "conjecture", "4", "5")
        assert code == 1
        lines = out.splitlines()
        assert [line.split(";")[0] for line in lines] == \
            [f"p={p}: {score} canonical forms match (FAIL)" for p in (4, 5)]


def test_show_orbit(capsys):
    code, out, _ = run(capsys, "show-orbit", "--format", "2x2x2",
                       "--code", "107")
    assert code == 0
    assert "orbit #6" in out
    assert "rank 3" in out and "size 12" in out
    assert "members:" in out
    assert "107 109 121" in out


def test_show_orbit_lists_under_a_small_cap(capsys):
    # a listing is charged the atlas, the listing's peak and the printed
    # block of its own 12 members, not the enumeration's bytes and not a
    # block of 4096 members
    code, out, _ = run(capsys, "show-orbit", "--format", "2x2x2", "--code", "107",
                       "--mem-cap", "100000")
    assert code == 0
    assert len(out.splitlines()[1].split()) == 1 + 12


def listing_bytes(atlas, oid):
    # what show-orbit checks before it lists orbit oid
    return (atlas.nbytes + atlas.member_bytes(oid)
            + _PRINT_BYTES * min(int(atlas.sizes[oid]), _PRINT_BLOCK))


def test_show_orbit_members_match_table(capsys, engine):
    # the member list against a whole-table scan, from each orbit's
    # largest member rather than its canonical
    for fmt in ("2x2x2", "2x2x2x2"):
        atlas = engine.atlas(fmt)
        ids = atlas.orbit_id(np.arange(atlas.shape.code_bound))
        small = np.flatnonzero(atlas.sizes[1:] <= 64) + 1
        assert small.size
        for oid in small:
            members = np.flatnonzero(ids == oid)
            code, out, _ = run(capsys, "show-orbit", "--format", fmt,
                               "--code", str(members[-1]))
            assert code == 0
            assert out.splitlines()[1] == \
                "members: " + " ".join(str(m) for m in members.tolist())


def test_show_orbit_members_honour_cap(capsys, engine):
    # listing the 108 members of code 24's orbit needs the atlas, the
    # listing's bytes and a printed block of 108 members, more than the
    # enumeration or ranking of 2x2x2 needs
    atlas = engine.atlas("2x2x2")
    need = listing_bytes(atlas, atlas.orbit_id(24))
    assert need > max(required_bytes(atlas.shape), rank_bytes(atlas))
    argv = ("show-orbit", "--format", "2x2x2", "--code", "24", "--members-limit", "200")
    code, out, err = run(capsys, *argv, "--mem-cap", str(need - 1))
    assert code == 2
    assert "members:" not in out and f"{need} bytes" in err
    code, out, _ = run(capsys, *argv, "--mem-cap", str(need))
    assert code == 0
    assert len(out.splitlines()[1].split()) == 1 + 108


def test_show_orbit_listing_peak_is_counted(tmp_path, monkeypatch, engine):
    # the 423,360 members of a 4x3x2 orbit, printed to a file in blocks:
    # tracemalloc's peak over the whole command stays under the largest
    # figure the command checks, the listing's here, plus a fixed slack
    # for the Python objects of the command (its parser, first calls)
    atlas = engine.atlas("4x3x2")
    oid = atlas.orbit_id(4384)
    counted = max(required_bytes(atlas.shape), rank_bytes(atlas), listing_bytes(atlas, oid))
    assert counted == listing_bytes(atlas, oid)
    listing = tmp_path / "members.txt"
    with open(listing, "w") as sink, open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", null)
        try:
            code, peak = traced_peak(lambda: main(["show-orbit", "--format", "4x3x2", "--code",
                                                   "4384", "--members-limit", "100000000"]))
        finally:
            monkeypatch.undo()
    assert code == 0
    lines = listing.read_text().splitlines()
    assert len(lines[1].split()) == 1 + 423360
    assert peak <= counted + (256 << 10)


def test_show_orbit_members_threshold(capsys):
    code, out, _ = run(capsys, "show-orbit", "--format", "2x2x2",
                       "--code", "24", "--members-limit", "64")
    assert code == 0
    assert "size 108" in out
    assert "members:" not in out


def test_cli_imports_numpy_only():
    # sympy and hypothesis are test-only dependencies; the CLI loads the
    # engine only when a command runs, so the probe runs one
    probe = ("import sys; from f2orbits.cli import main; "
             "assert main(['classify', '--format', '2x2x2']) == 0; "
             "sys.exit(' '.join({'sympy', 'hypothesis'} & set(sys.modules)) or None)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def console(*argv, env=()):
    """python -m f2orbits.cli, the console entry, in a fresh process with
    F2TO_MEM_CAP unset unless env sets it."""
    full = {k: v for k, v in os.environ.items() if k != "F2TO_MEM_CAP"}
    full.update(env, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "f2orbits.cli", *argv], env=full,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("argv", [("classify", "--format", "2x2x2"),
                                  ("classify", "--format", "3x3x2", "--flavor", "large")],
                         ids=["2x2x2", "3x3x2-large"])
def test_console_entry_matches_main(capsys, tmp_path, argv):
    # the entry freezes the collector's objects before it exits; the
    # report, to stdout or to --output, is main's to the byte
    code, out, _ = run(capsys, *argv)
    assert code == 0
    done = console(*argv)
    assert (done.returncode, done.stdout) == (0, out.encode())
    target = tmp_path / "report.txt"
    done = console(*argv, "--output", str(target))
    assert (done.returncode, done.stdout) == (0, b"")
    assert target.read_bytes() == out.encode()


def test_console_entry_exit_codes(tmp_path):
    argv = ("classify", "--format", "2x2x2")
    done = console(*argv, env={"F2TO_MEM_CAP": "abc"})
    assert done.returncode == 1 and b"F2TO_MEM_CAP" in done.stderr
    done = console(*argv, "--emit", "yaml")
    assert done.returncode == 2 and b"usage: f2orbits" in done.stderr
    done = console(*argv, "--output", str(tmp_path / "missing" / "report.txt"))
    assert done.returncode == 3 and b"f2orbits:" in done.stderr


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only the console entry freezes; main runs in-process for tests and
    # library callers
    before = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, "classify", "--format", "3x2x2", "--flavor", "large")[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
