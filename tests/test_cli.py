"""Command-line behavior: outputs, exit codes, snapshots, caps."""

import json
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from f2orbits.cli import _PRINT_BLOCK_BYTES, main
from f2orbits.orbits import required_bytes
from f2orbits.tensor import Shape


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
    assert doc["distribution"][0]["percent"] == "0.3906"
    assert sum(d["tensors"] for d in doc["distribution"]) == 256


def test_classify_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--format", "3x2x2", "--emit", "csv")
    _, second, _ = run(capsys, "classify", "--format", "3x2x2", "--emit", "csv")
    assert first == second


def test_classify_rejects_bad_format(capsys):
    code, _, err = run(capsys, "classify", "--format", "1x2x2")
    assert code == 1
    assert "at least 2" in err
    code, _, err = run(capsys, "classify", "--format", "4x4x2")
    assert code == 1


def test_classify_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "classify", "--format", "2x2x2",
                       "--emit", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "1,1,27,.......1,1"


def test_classify_output_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--format", "2x2x2",
                       "--output", str(tmp_path))
    assert code == 3
    assert "f2orbits:" in err


def test_classify_mem_cap_refusal(capsys):
    code, _, err = run(capsys, "classify", "--format", "3x3x2",
                       "--mem-cap", "1000")
    assert code == 2
    assert "bytes" in err and "cap" in err


def test_mem_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("F2TO_MEM_CAP", "1000")
    code, _, err = run(capsys, "classify", "--format", "3x3x2")
    assert code == 2
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "classify", "--format", "3x3x2",
                       "--mem-cap", str(1 << 30))
    assert code == 0
    assert out
    # a value that is not a byte count is invalid input and names itself
    monkeypatch.setenv("F2TO_MEM_CAP", "lots")
    code, _, err = run(capsys, "classify", "--format", "3x3x2")
    assert code == 1
    assert "F2TO_MEM_CAP" in err and "'lots'" in err


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


def test_snapshot_load_mem_cap(capsys, tmp_path, monkeypatch):
    # a snapshot load is refused by the same cap as an enumeration, from
    # the flag or from the environment
    need = required_bytes(Shape((2, 2, 2)))
    snap = tmp_path / "a.snap"
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0
    code, out, err = run(capsys, "classify", "--format", "2x2x2",
                         "--snapshot", str(snap), "--mem-cap", "1")
    assert code == 2 and out == ""
    assert f"{need} bytes" in err and "cap is 1 bytes" in err
    monkeypatch.setenv("F2TO_MEM_CAP", str(need - 1))
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 2
    monkeypatch.setenv("F2TO_MEM_CAP", str(need))
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0


def test_snapshot_format_mismatch(capsys, tmp_path):
    snap = tmp_path / "a.snap"
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0
    code, _, err = run(capsys, "classify", "--format", "3x2x2",
                       "--snapshot", str(snap))
    assert code == 1
    assert "2x2x2" in err
    # the shape is checked before the cap, so a cap too small for either
    # format still reports the mismatch, not the other format's table
    code, out, err = run(capsys, "classify", "--format", "3x2x2",
                         "--snapshot", str(snap), "--mem-cap", "1")
    assert code == 1 and out == ""
    assert "holds 2x2x2, expected 3x2x2" in err


def test_snapshot_cell_width_four_refused(capsys, tmp_path):
    snap = tmp_path / "a.snap"
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0
    blob = bytearray(snap.read_bytes())
    blob[9] = 4  # the width byte after magic, version, mode count and dims
    snap.write_bytes(bytes(blob))
    code, out, err = run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert "cell width 4" in err


def test_snapshot_record_disagreeing_with_table_refused(capsys, tmp_path):
    snap = tmp_path / "a.snap"
    assert run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))[0] == 0
    blob = bytearray(snap.read_bytes())
    # bit 0 of the second record's canonical: 6 becomes 7, which lies in
    # the same orbit but is not its least code; the records end 4 bytes
    # before the end, where the CRC goes
    blob[len(blob) - 4 - 12 * 6] ^= 1
    snap.write_bytes(bytes(blob))
    code, out, err = run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert "fails its CRC check" in err
    blob[-4:] = zlib.crc32(bytes(blob[:-4])).to_bytes(4, "little")
    snap.write_bytes(bytes(blob))
    code, out, err = run(capsys, "classify", "--format", "2x2x2", "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert "canonicals disagree with the keys and ids" in err


def test_cell_width_option_is_gone(capsys):
    # cells are always 2 bytes, so no subcommand offers a width
    for command in ("classify", "verify", "conjecture", "show-orbit"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--cell-width" not in capsys.readouterr().out


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--format", "4x2x2")
    assert code == 0
    assert "pass, 10 rows matched" in out


def test_verify_missing_reference(capsys):
    code, _, err = run(capsys, "verify", "--format", "9x9x9")
    assert code == 2
    assert "no reference" in err
    # flavor matters: only the large table exists for this format
    code, _, err = run(capsys, "verify", "--format", "2x2x2x2")
    assert code == 2


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "4")
    assert code == 0
    assert "10/10 canonical forms match (pass)" in out
    assert "20160/2^16 = 0.3076" in out


def test_conjecture_rejects_small_p(capsys):
    code, _, err = run(capsys, "conjecture", "3")
    assert code == 1
    assert "p >= 4" in err


def test_show_orbit(capsys):
    code, out, _ = run(capsys, "show-orbit", "--format", "2x2x2",
                       "--code", "107")
    assert code == 0
    assert "orbit #6" in out
    assert "rank 3" in out and "size 12" in out
    assert "members:" in out
    assert "107 109 121" in out


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
    # listing the 108 members of code 24's orbit needs the enumeration's
    # bytes, the listing's and one printed block
    atlas = engine.atlas("2x2x2")
    need = (required_bytes(atlas.shape) + atlas.member_bytes(atlas.orbit_id(24))
            + _PRINT_BLOCK_BYTES)
    argv = ("show-orbit", "--format", "2x2x2", "--code", "24", "--members-limit", "200")
    code, out, err = run(capsys, *argv, "--mem-cap", str(need - 1))
    assert code == 2
    assert "members:" not in out and f"{need} bytes" in err
    code, out, _ = run(capsys, *argv, "--mem-cap", str(need))
    assert code == 0
    assert len(out.splitlines()[1].split()) == 1 + 108


def test_show_orbit_listing_peak_is_counted(tmp_path, monkeypatch, engine):
    # the 423,360 members of a 4x3x2 orbit, printed to a file in blocks:
    # tracemalloc's peak over the whole command stays under the bytes the
    # cap check counts, plus a fixed slack for Python objects
    atlas = engine.atlas("4x3x2")
    oid = atlas.orbit_id(4384)
    counted = required_bytes(atlas.shape) + atlas.member_bytes(oid) + _PRINT_BLOCK_BYTES
    listing = tmp_path / "members.txt"
    with open(listing, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.setattr(sys, "stderr", open(os.devnull, "w"))
        tracemalloc.start()
        try:
            code = main(["show-orbit", "--format", "4x3x2", "--code", "4384",
                         "--members-limit", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stderr.close()
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


def test_show_orbit_range_error(capsys):
    code, _, err = run(capsys, "show-orbit", "--format", "2x2x2",
                       "--code", "300")
    assert code == 1
    assert "out of range" in err
    assert run(capsys, "show-orbit", "--format", "2x2x2", "--code", "0")[0] == 1
    # the code is checked before the cap or any enumeration
    code, _, err = run(capsys, "show-orbit", "--format", "3x3x3",
                       "--code", "0", "--mem-cap", "1")
    assert code == 1
    assert "out of range" in err


def test_usage_error_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--format", "2x2x2", "--emit", "yaml"])
    with pytest.raises(SystemExit):
        main([])


def test_cli_imports_numpy_only():
    # sympy and hypothesis are test-only dependencies
    probe = ("import sys, f2orbits.cli; "
             "sys.exit(' '.join({'sympy', 'hypothesis'} & set(sys.modules)) or None)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
