import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from unittest import mock

import hypothesis.strategies as st
import pytest
from helpers import distinct_odd_counts, stair
from hypothesis import given, settings

import mullineux
from mullineux import characters, cli, involution, twisted
from mullineux.cache import SCHEMA_VERSION, Cache, _digest
from mullineux.characters import character_series
from mullineux.cli import (EXIT_INTERNAL, EXIT_USAGE, MAX_BOXES, MAX_E, MAX_VERTICES,
                           _counts_payload, main)
from mullineux.export import _dump
from mullineux.partitions import CrystalKind, format_partition, partitions_of, regular_counts

COMMANDS = [
    ["compute", "-e", "3", "3,1,1"],
    ["compute", "-e", "3", "2"],
    ["fixed", "-e", "3", "-n", "5"],
    ["fixed", "-e", "3", "-n", "5", "--profile"],
    ["crystal", "export", "--kind", "typea", "-e", "3", "--bound", "4", "--format", "dot"],
    ["crystal", "export", "--kind", "typea", "-e", "3", "--bound", "4", "--format", "jsonl"],
    ["crystal", "export", "--kind", "odd", "--ell", "1", "--bound", "5", "--format", "jsonl"],
    ["crystal", "export", "--kind", "even", "--ell", "2", "--bound", "5", "--format", "dot"],
    ["twisted", "path", "--kind", "odd", "--ell", "1", "2,1"],
    ["eta", "--kind", "odd", "--ell", "1", "2"],
    ["eta", "--kind", "odd", "--ell", "1", "--check", "2,1"],
    ["bijection", "dp2sp", "4,2,1"],
    ["bijection", "sp2dp", "4,3,3,1"],
    ["fold-cartan", "-e", "5"],
    ["verify", "--kind", "odd", "--ell", "1", "--max-deg", "2"],
    ["verify", "--kind", "even", "--ell", "1", "--max-deg", "4", "--json"],
    ["alt-count", "-e", "3", "-n", "5"],
]


# The directory that holds the imported `mullineux` package: `src/` under
# PYTHONPATH=src, site-packages or the editable source root when installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mullineux.__file__)))


def cli_env(tmp_path):
    # Minimal env (no locale, no hash seed) so that byte-identity is checked
    # across fresh interpreters; PYTHONPATH makes the child import the same
    # copy of the package as this process.
    return {"PATH": "", "MULLINEUX_CACHE_DIR": str(tmp_path / "cache"),
            "PYTHONPATH": PACKAGE_ROOT}


def run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "mullineux", *args],
        capture_output=True, text=True, env=cli_env(tmp_path),
    )


def test_cli_child_imports_package_under_test(tmp_path):
    child = subprocess.run(
        [sys.executable, "-c", "import mullineux; print(mullineux.__file__)"],
        capture_output=True, text=True, env=cli_env(tmp_path),
    )
    assert child.returncode == 0, (
        f"a child with run_cli's env cannot import mullineux:\n{child.stderr}")
    child_file = os.path.abspath(child.stdout.strip())
    assert child_file == os.path.abspath(mullineux.__file__), (
        "a child with run_cli's env imports a different copy of mullineux")


def test_compute_output(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["compute", "-e", "3", "3,1,1"]) == 0
    assert capsys.readouterr().out == "3,1,1\n"
    assert main(["compute", "-e", "3", "2"]) == 0
    assert capsys.readouterr().out == "1,1\n"


def test_fold_cartan_output(capsys):
    assert main(["fold-cartan", "-e", "5"]) == 0
    assert capsys.readouterr().out == "2 -2 0\n-1 2 -2\n0 -1 2\n"
    assert main(["fold-cartan", "-e", "2"]) == 0
    assert capsys.readouterr().out == "2 -2\n-2 2\n"


def test_twisted_path_and_eta(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["twisted", "path", "--kind", "odd", "--ell", "1", "2,1"]) == 0
    assert capsys.readouterr().out == "0,1,0\n"
    assert main(["twisted", "path", "--kind", "odd", "--ell", "1", "-"]) == 0
    assert capsys.readouterr().out == "-\n"
    assert main(["eta", "--kind", "odd", "--ell", "1", "2"]) == 0
    assert capsys.readouterr().out == "3,1,1\n"


def test_eta_check_emits_json_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["eta", "--kind", "even", "--ell", "2", "--check", "2,1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True
    assert all(check["passed"] for check in blob["checks"])


def test_bijection_round_trip(capsys):
    assert main(["bijection", "dp2sp", "4,2,1"]) == 0
    assert capsys.readouterr().out == "4,3,3,1\n"
    assert main(["bijection", "sp2dp", "4,3,3,1"]) == 0
    assert capsys.readouterr().out == "4,2,1\n"


def test_fixed_profile_records(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["fixed", "-e", "3", "-n", "5", "--profile"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record == {"n": 5, "partition": [3, 1, 1], "residue_profile": [1, 2, 2]}
    assert main(["fixed", "-e", "3", "-n", "2"]) == 0
    assert capsys.readouterr().out == ""


def test_alt_count(capsys):
    assert main(["alt-count", "-e", "3", "-n", "5"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_verify_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degree lhs rhs-from-counts rhs-from-crystal status"
    assert out.splitlines()[-1] == "PASS"
    assert main(["verify", "--kind", "even", "--ell", "1", "--max-deg", "3",
                 "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["ok"] is True and len(blob["rows"]) == 4


def test_usage_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    # malformed literal
    assert main(["compute", "-e", "3", "3,4"]) == 2
    assert "error:" in capsys.readouterr().err
    # a literal int() would read as 10
    assert main(["compute", "-e", "3", "1_0"]) == 2
    assert capsys.readouterr() == ("", "error: malformed partition literal: '1_0'\n")
    # a literal int() would read as 3, whose image 2,1 was once printed
    assert main(["compute", "-e", "3", "03"]) == 2
    assert capsys.readouterr() == ("", "error: malformed partition literal: '03'\n")
    # partition outside the command's domain
    assert main(["compute", "-e", "3", "1,1,1"]) == 2
    capsys.readouterr()
    assert main(["bijection", "dp2sp", "2,2"]) == 2
    capsys.readouterr()
    assert main(["eta", "--kind", "odd", "--ell", "1", "3"]) == 2
    capsys.readouterr()
    assert main(["fold-cartan", "-e", "1"]) == 2
    capsys.readouterr()
    assert main(["crystal", "export", "--kind", "typea", "--bound", "2",
                 "--format", "dot"]) == 2
    capsys.readouterr()
    # unknown command exits 2 via argparse
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_jsonl_export_shape(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["crystal", "export", "--kind", "odd", "--ell", "1",
                 "--bound", "3", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "odd" and header["ell"] == 1
    vertices = [json.loads(line) for line in lines[1:-1]]
    assert vertices[0] == {"n": 0, "partition": []}
    assert {"n": 3, "partition": [2, 1]} in vertices
    edges = json.loads(lines[-1])["edges"]
    assert {"from": [], "res": 0, "to": [1]} in edges


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: " ".join(a))
def test_byte_identical_across_runs_and_cache_states(args, tmp_path):
    # Two runs with one cache directory: for verify the second reads the
    # counts entry the first wrote (a warm run); every other command caches
    # nothing, so its second run recomputes.
    cold = run_cli(args, tmp_path)
    assert cold.returncode == 0, cold.stderr
    warm = run_cli(args, tmp_path)
    assert warm.returncode == 0, warm.stderr
    assert cold.stdout == warm.stdout
    assert cold.stdout  # every command prints something


def test_cache_corruption_is_a_miss(tmp_path):
    cache = Cache(tmp_path / "c")
    cache.put(("fixed", "e3", "n5"), "payload\n")
    assert cache.get(("fixed", "e3", "n5")) == "payload\n"
    path = cache._path(("fixed", "e3", "n5"))
    path.write_text(path.read_text().replace("payload", "tampered"))
    assert cache.get(("fixed", "e3", "n5")) is None
    cache.put(("fixed", "e3", "n5"), "rebuilt")
    assert cache.get(("fixed", "e3", "n5")) == "rebuilt"


@pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
def test_a_cache_entry_that_is_not_an_object_is_a_miss(text, capsys, tmp_path, monkeypatch):
    root = tmp_path / "cache"
    root.mkdir()
    (root / f"{SCHEMA_VERSION}-counts-e3-s4.json").write_text(text)
    assert Cache(root).get(("counts", "e3", "s4")) is None
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "1"]) == 0
    assert capsys.readouterr().out == (
        "degree lhs rhs-from-counts rhs-from-crystal status\n"
        "0 1 1 1 ok\n"
        "1 1 1 1 ok\n"
        "PASS\n")


@pytest.mark.parametrize("under", ["", "sub"], ids=["a file", "under a file"])
def test_an_unwritable_cache_is_a_usage_error(under, capsys, tmp_path, monkeypatch):
    # Exit 1 would read as a failed verification and exit 3 as a bug.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    root = blocker / under if under else blocker
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot write the cache in ")
    assert str(root) in line and "MULLINEUX_CACHE_DIR" in line
    assert blocker.read_text() == ""


@pytest.mark.parametrize("args", [
    ["--kind", "typea", "-e", "3"],
    ["--kind", "odd", "--ell", "1"],
    ["--kind", "even", "--ell", "2"],
], ids=lambda args: args[1])
@pytest.mark.parametrize("fmt", ["dot", "jsonl"])
def test_crystal_export_writes_no_cache(args, fmt, capsys, tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    for _ in range(2):
        assert main(["crystal", "export", *args, "--bound", "4", "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert not root.exists() or not any(root.iterdir())


def test_a_planted_export_entry_is_never_printed(capsys, tmp_path, monkeypatch):
    # Exports were once cached under this key; such an entry, checksum-valid
    # with a wrong payload, must not stand in for the export.
    argv = ["crystal", "export", "--kind", "odd", "--ell", "1", "--bound", "4",
            "--format", "jsonl"]
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "empty"))
    assert main(argv) == 0
    expected = capsys.readouterr().out
    root = tmp_path / "cache"
    root.mkdir()
    key, wrong = ["export", "odd", "ell1", "b4", "jsonl"], '{"wrong": true}\n'
    (root / "v1-export-odd-ell1-b4-jsonl.json").write_text(json.dumps(
        {"key": key, "sha256": _digest(wrong), "payload": wrong}))
    assert Cache(root).get(tuple(key)) == wrong
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    assert main(argv) == 0
    assert capsys.readouterr().out == expected != wrong


def test_fixed_rejects_e_below_two_and_caches_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["fixed", "-e", "0", "-n", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: e must be at least 2, got 0\n"
    # A counts table whose build fails is not stored: a column source that
    # tallies the one node of the column (1, 1) at residue 1, not 0, breaks
    # the odd-case parity (N_ell = 1 at e = 3).
    monkeypatch.setattr(involution, "_fixed_columns", lambda e, max_n: [[(1, 1, 0, 1)], []])
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: fixed points of size 1 with N_0 = 0, N_ell = 1 violate the "
        "odd-case parity constraints (e=3)\n")
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_unversioned_cache_entry_is_a_miss(capsys, tmp_path, monkeypatch):
    # An entry exactly as written before keys carried a schema version,
    # holding a stale payload: it must be neither found nor printed.
    root = tmp_path / "cache"
    root.mkdir()
    stale = _dump({"count": 5, "m": 0, "mp": 0, "n": 0}) + "\n"
    (root / "counts-e3-s4.json").write_text(json.dumps(
        {"key": ["counts", "e3", "s4"], "sha256": _digest(stale), "payload": stale}))
    assert Cache(root).get(("counts", "e3", "s4")) is None
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "1"]) == 0
    assert capsys.readouterr().out == (
        "degree lhs rhs-from-counts rhs-from-crystal status\n"
        "0 1 1 1 ok\n"
        "1 1 1 1 ok\n"
        "PASS\n")


def test_cold_verify_leaves_one_counts_entry(capsys, tmp_path, monkeypatch):
    # The format the benchmark's identity check reads back: a cold verify
    # writes one entry, whose payload lines are {count, m, mp, n} records
    # that sum, per size n, to the fixed-point counts.
    root = tmp_path / "cache"
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(root))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    (entry,) = root.iterdir()
    fixed = [0] * 13
    for line in json.loads(entry.read_text(encoding="utf-8"))["payload"].splitlines():
        record = json.loads(line)
        assert set(record) == {"count", "m", "mp", "n"}
        fixed[record["n"]] += record["count"]
    assert fixed == distinct_odd_counts(3, 12)


def test_internal_error_has_its_own_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    # a symbol column with no rim parent, from the first one on
    monkeypatch.setattr(involution, "_add_rim", lambda beads, r, a, e: False)
    assert main(["compute", "-e", "3", "3,1,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: symbol column (5, 3) has no rim parent of () (e=3)\n"


def test_short_replay_is_an_internal_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    # a rebuild that places the last column and then finds no rim parent
    add_rim = involution._add_rim
    monkeypatch.setattr(involution, "_add_rim",
                        lambda beads, r, a, e: False if beads else add_rim(beads, r, a, e))
    assert main(["compute", "-e", "3", "4,2,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: symbol column (6, 3) has no rim parent of (1,) (e=3)\n"


def test_an_unfold_column_with_no_rim_parent_is_an_internal_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    # eta rebuilds c(1) = (1, 1) inside c(2) = (5, 3) on the same kernel
    add_rim = involution._add_rim
    monkeypatch.setattr(involution, "_add_rim",
                        lambda beads, r, a, e: False if beads else add_rim(beads, r, a, e))
    assert main(["eta", "--kind", "odd", "--ell", "1", "2,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: symbol column (5, 3) has no rim parent of (1,) (e=3)\n"


def test_a_twisted_move_out_of_the_class_is_an_internal_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    # row kernels that hand back row 1 for every residue: stripping (2, 1)
    # leaves (1, 1), and growing () reaches (3,), neither 3-strict restricted.
    # eta builds its image from symbol columns and reads no kernel; eta
    # --check strips its vertex for the word it prints.
    for kernel in ("_good_rows", "_cogood_rows"):
        monkeypatch.setattr(twisted, kernel, lambda lam, seats: [1] * seats[0])
    assert main(["eta", "--kind", "odd", "--ell", "1", "2,1"]) == 0
    assert capsys.readouterr().out == "4,1,1\n"
    assert main(["eta", "--kind", "odd", "--ell", "1", "--check", "2,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: good removal left the class: (2, 1) - row 1\n"
    assert main(["crystal", "export", "--kind", "odd", "--ell", "1", "--bound", "4",
                 "--format", "jsonl"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: cogood addition left the class: (2,) + row 1\n"
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_negative_degree_is_rejected_before_the_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["verify", "--kind", "odd", "--ell", "1", "--max-deg", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_degree must be non-negative, got -1\n"
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


@pytest.mark.parametrize("args", [
    ["compute", "-e", str(10 ** 20), "2,1"],
    ["fixed", "-e", str(10 ** 20), "-n", "3"],
    ["fold-cartan", "-e", str(MAX_E + 1)],
    ["eta", "--kind", "odd", "--ell", str(10 ** 20), "2"],
    ["verify", "--kind", "even", "--ell", str(MAX_E + 1), "--max-deg", "2"],
    ["crystal", "export", "--kind", "typea", "-e", str(10 ** 20), "--bound", "3",
     "--format", "dot"],
])
def test_e_and_ell_above_the_ceiling_are_usage_errors(args, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    flag = "-e" if "-e" in args else "--ell"
    value = args[args.index(flag) + 1]
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at most {MAX_E}, got {value}\n"
    assert not (tmp_path / "cache").exists()


SIZES_ABOVE_THE_CEILING = [
    (["fixed", "-e", "3", "-n", str(MAX_BOXES + 1)],
     f"-n must be at most {MAX_BOXES}, got 10001"),
    (["fixed", "-e", "3", "-n", str(10 ** 20), "--profile"],
     f"-n must be at most {MAX_BOXES}, got {10 ** 20}"),
    (["alt-count", "-e", "5", "-n", str(MAX_BOXES + 1)],
     f"-n must be at most {MAX_BOXES}, got 10001"),
    (["crystal", "export", "--kind", "typea", "-e", "3", "--bound", str(MAX_BOXES + 1),
      "--format", "dot"], f"--bound must be at most {MAX_BOXES}, got 10001"),
    (["crystal", "export", "--kind", "odd", "--ell", "1", "--bound", str(10 ** 20),
      "--format", "jsonl"], f"--bound must be at most {MAX_BOXES}, got {10 ** 20}"),
    (["verify", "--kind", "odd", "--ell", "1", "--max-deg", "2501"],
     f"--max-deg 2501 needs sizes to 10004, at most {MAX_BOXES}"),
    (["verify", "--kind", "even", "--ell", "2", "--max-deg", "5001", "--json"],
     f"--max-deg 5001 needs sizes to 10002, at most {MAX_BOXES}"),
    (["verify", "--kind", "odd", "--ell", "3", "--max-deg", str(10 ** 20)],
     f"--max-deg {10 ** 20} needs sizes to {4 * 10 ** 20}, at most {MAX_BOXES}"),
]


@pytest.mark.parametrize("args, message", SIZES_ABOVE_THE_CEILING,
                         ids=[" ".join(args) for args, _ in SIZES_ABOVE_THE_CEILING])
def test_sizes_above_the_ceiling_are_usage_errors(args, message, capsys, tmp_path,
                                                  monkeypatch):
    # Rejected before any work: each would otherwise start a BFS of hours.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args, message", [
    (["--kind", "odd", "--ell", "1", "-e", "0"], "--kind odd takes no -e"),
    (["--kind", "even", "--ell", "2", "-e", "3"], "--kind even takes no -e"),
    (["--kind", "typea", "-e", "3", "--ell", "7"], "--kind typea takes no --ell"),
])
def test_crystal_export_rejects_the_parameter_its_kind_does_not_read(
        args, message, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["crystal", "export", *args, "--bound", "1", "--format", "dot"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args", [
    ["--kind", "odd", "--ell", "1"],
    ["--kind", "even", "--ell", "2"],
    ["--kind", "typea", "-e", "3"],
], ids=lambda args: args[1])
def test_a_negative_bound_names_its_flag(args, capsys, tmp_path, monkeypatch):
    # The walks name their own parameters (max_depth, max_n); the CLI names
    # the flag, before any work.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["crystal", "export", *args, "--bound", "-2", "--format", "jsonl"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bound must be non-negative, got -2\n"
    assert not (tmp_path / "cache").exists()


def refuse_walks(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a walk started: {args}")
    monkeypatch.setattr(cli, "enumerate_twisted", refuse)
    monkeypatch.setattr(cli, "enumerate_kleshchev", refuse)


@pytest.mark.parametrize("args, total, depth", [
    (["--kind", "even", "--ell", "1"], 53_376_275, 128),
    (["--kind", "odd", "--ell", "1"], 1_906_609, 128),
    (["--kind", "odd", "--ell", str(MAX_E)], 53_376_275, 128),
    (["--kind", "typea", "-e", "2"], 53_376_275, 128),
    (["--kind", "typea", "-e", str(MAX_E)], 12_308_139, 64),
], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else str(arg))
def test_exports_over_the_vertex_ceiling_start_no_walk(args, total, depth, capsys, tmp_path,
                                                       monkeypatch):
    # --bound MAX_BOXES is accepted as a size; the level sizes, read ahead
    # with the truncation doubling, pass MAX_VERTICES long before it.  The
    # totals count partitions of 0..depth into odd parts (even ell = 1, odd
    # ell = MAX_E, e = 2: distinct parts), into parts +-1 mod 6 (odd ell = 1)
    # and into any parts (e = MAX_E, far above depth).
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    refuse_walks(monkeypatch)
    assert main(["crystal", "export", *args, "--bound", str(MAX_BOXES),
                 "--format", "dot"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --bound {MAX_BOXES}: levels 0..{depth} alone hold "
                            f"{total} vertices, at most {MAX_VERTICES}\n")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("args, sizes", [
    (["--kind", "even", "--ell", "1"], partial(character_series, CrystalKind.even(1))),
    (["--kind", "odd", "--ell", "2"], partial(character_series, CrystalKind.odd(2))),
    (["--kind", "typea", "-e", "3"], partial(regular_counts, 3)),
], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else "")
@pytest.mark.parametrize("bound", [4, 9])
def test_the_vertex_ceiling_admits_exactly_its_count(args, sizes, bound, capsys, tmp_path,
                                                     monkeypatch):
    # With the ceiling at the vertex count of levels 0..bound, that bound
    # exports those vertices and bound + 1 starts no walk.  At bound 4 the
    # doubling reads levels 0..4 on its way to 5, a total at the ceiling.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cli, "MAX_VERTICES", sum(sizes(bound)))
    argv = ["crystal", "export", *args, "--format", "jsonl", "--bound"]
    assert main([*argv, str(bound)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == sum(sizes(bound)) + 2
    refuse_walks(monkeypatch)
    assert main([*argv, str(bound + 1)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --bound {bound + 1}: levels 0..{bound + 1} alone hold "
        f"{sum(sizes(bound + 1))} vertices, at most {sum(sizes(bound))}\n")


def refuse_census(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a census started: {args}")
    monkeypatch.setattr(characters, "census_twisted", refuse)


@pytest.mark.parametrize("args, total", [
    (["--kind", "even", "--ell", "1", "--max-deg", "5000"], 53_376_275),
    (["--kind", "odd", "--ell", "1", "--max-deg", "2500"], 1_906_609),
], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else str(arg))
def test_verifies_over_the_vertex_ceiling_start_no_walk(args, total, capsys, tmp_path,
                                                         monkeypatch):
    # Both fixed size bounds are 10,000 boxes, MAX_BOXES; the series, read
    # ahead as for exports, passes MAX_VERTICES at degree 128, before the
    # counts table is built or cached and before the census walks.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    refuse_census(monkeypatch)
    assert main(["verify", *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --max-deg {args[-1]}: levels 0..128 alone hold "
                            f"{total} vertices, at most {MAX_VERTICES}\n")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("kind", [CrystalKind.even(1), CrystalKind.odd(2)], ids=str)
@pytest.mark.parametrize("degree", [4, 9])
def test_the_verify_ceiling_admits_exactly_its_count(kind, degree, capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cli, "MAX_VERTICES", sum(character_series(kind, degree)))
    argv = ["verify", "--kind", kind.parity, "--ell", str(kind.ell), "--json", "--max-deg"]
    assert main([*argv, str(degree)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    refuse_census(monkeypatch)
    assert main([*argv, str(degree + 1)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --max-deg {degree + 1}: levels 0..{degree + 1} alone hold "
        f"{sum(character_series(kind, degree + 1))} vertices, at most "
        f"{sum(character_series(kind, degree))}\n")


# sha256 of the counts payload that `verify` caches, recorded with
# SCHEMA_VERSION "v1".  The payload is never printed, so no stdout digest
# covers it: code that changes it must bump the version with these pins.
PINNED_COUNTS_PAYLOAD_SHA256 = {
    (3, 12): "58fbb8274cb48769fd6bddb545f9bf3ded4d9462be44cc16738bc92dc06cd38d",
    (4, 28): "61c0f94fe2b4e9efae9c234f04a0165758262815a38972517a2ba0281f1d1565",
}


@pytest.mark.parametrize("e, bound", PINNED_COUNTS_PAYLOAD_SHA256)
def test_counts_payload_matches_its_schema_version(e, bound):
    digest = hashlib.sha256(_counts_payload(e, bound).encode()).hexdigest()
    assert (SCHEMA_VERSION, digest) == ("v1", PINNED_COUNTS_PAYLOAD_SHA256[e, bound]), (
        "the counts payload or cache.SCHEMA_VERSION changed: bump SCHEMA_VERSION, "
        "and re-record these pins and the version they name, together, so that "
        "no entry written by older code is served")


def test_e_at_the_ceiling_is_accepted(capsys):
    assert main(["compute", "-e", str(MAX_E), "2,1"]) == 0
    assert capsys.readouterr().out == "2,1\n"


# A restricted 3-strict partition (odd ell=1) of MAX_BOXES + 1 boxes.
ODD1_MEMBER_ABOVE_CEILING = ",".join(["3"] * 3333 + ["2"])


@pytest.mark.parametrize("args", [
    ["compute", "-e", "2", str(MAX_BOXES + 1)],
    ["twisted", "path", "--kind", "odd", "--ell", "1", ODD1_MEMBER_ABOVE_CEILING],
    ["eta", "--kind", "odd", "--ell", "1", ODD1_MEMBER_ABOVE_CEILING],
    ["eta", "--kind", "odd", "--ell", "1", "--check", ODD1_MEMBER_ABOVE_CEILING],
    ["bijection", "dp2sp", str(MAX_BOXES + 1)],
    ["bijection", "sp2dp", ",".join(["5001"] + ["1"] * 5000)],
], ids=lambda args: " ".join(args[:-1]))
def test_partition_literals_above_the_ceiling_are_usage_errors(args, capsys, tmp_path,
                                                               monkeypatch):
    # Each literal is in its command's domain and has MAX_BOXES + 1 boxes.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: partition literal has {MAX_BOXES + 1} boxes, at most {MAX_BOXES}\n")


def test_partition_literals_at_the_ceiling_are_accepted(capsys):
    assert main(["compute", "-e", "2", str(MAX_BOXES)]) == 0
    assert capsys.readouterr().out == f"{MAX_BOXES}\n"
    assert main(["bijection", "dp2sp", str(MAX_BOXES)]) == 0
    assert capsys.readouterr().out == ",".join([str(MAX_BOXES)] + ["1"] * (MAX_BOXES - 1)) + "\n"
    assert main(["bijection", "sp2dp", ",".join(["5000"] + ["1"] * 4999)]) == 0
    assert capsys.readouterr().out == "5000\n"


MODULI = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, 7, 10 ** 20]).map(str)
PARTITION_TEXTS = st.one_of(
    st.text(max_size=4),
    st.just(str(MAX_BOXES + 1)),
    st.integers(0, 6).flatmap(lambda n: st.sampled_from(list(partitions_of(n))))
    .map(format_partition))


@st.composite
def argvs(draw):
    e, ell = ["-e", draw(MODULI)], ["--ell", draw(MODULI)]
    kind = ["--kind", draw(st.sampled_from(["odd", "even"]))]
    n, lam = str(draw(st.integers(-1, 6))), draw(PARTITION_TEXTS)
    argv = draw(st.sampled_from([
        ["compute", *e, lam],
        ["fixed", *e, "-n", n],
        ["fixed", *e, "-n", n, "--profile"],
        ["crystal", "export", "--kind", draw(st.sampled_from(["typea", "odd", "even"])),
         *draw(st.sampled_from([e, ell, e + ell, []])), "--bound", n,
         "--format", draw(st.sampled_from(["dot", "jsonl"]))],
        ["twisted", "path", *kind, *ell, lam],
        ["eta", *kind, *ell, lam],
        ["eta", *kind, *ell, "--check", lam],
        ["bijection", draw(st.sampled_from(["dp2sp", "sp2dp"])), lam],
        ["fold-cartan", *e],
        ["verify", *kind, *ell, "--max-deg", n],
        ["verify", *kind, *ell, "--max-deg", n, "--json"],
        ["alt-count", *e, "-n", n],
    ]))
    if draw(st.integers(0, 3)) == 0:  # now and then a token short, for argparse
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_fuzzed_argv_exits_with_a_documented_status(argv, tmp_path_factory):
    cache = tmp_path_factory.getbasetemp() / "fuzz-cache"
    with mock.patch.dict(os.environ, {"MULLINEUX_CACHE_DIR": str(cache)}), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3), argv


# Class members far past the bench's sizes: 3^3000 2 (odd ell=1, 9,002 boxes),
# the staircase 140, ..., 1 (even ell=2, 9,870 boxes), and one of 500 boxes
# per parity.
ODD1_THREES = ",".join(["3"] * 3000 + ["2"])
EVEN2_STAIRCASE = format_partition(stair(140, 1))
ODD2_500 = "52,50,47,43,40,40,39,36,31,28,23,20,17,12,9,5,5,3"
EVEN2_500 = "55,51,49,44,41,36,35,34,30,26,21,20,16,13,11,9,5,4"


def argv_id(args):
    """The command line, with a literal of more than 100 characters cut short."""
    return " ".join(arg if len(arg) <= 100 else f"{arg[:20]}...({len(arg)} chars)"
                    for arg in args)


# sha256 of each command's stdout, recorded with the 0.1.0 code.  CLI output
# must stay byte-identical from version to version, and comparing two runs of
# the same code cannot catch, say, a reordered edge list.
PINNED_COMMANDS = COMMANDS + [
    ["crystal", "export", "--kind", "typea", "-e", "3", "--bound", "10", "--format", "jsonl"],
    ["crystal", "export", "--kind", "odd", "--ell", "2", "--bound", "12", "--format", "dot"],
    ["fixed", "-e", "2", "-n", "12", "--profile"],
    ["fixed", "-e", "3", "-n", "2"],
    ["fixed", "-e", "4", "-n", "16"],
    ["alt-count", "-e", "2", "-n", "30"],
    # The bench-size twisted exports, and the word, image and fold report of
    # three class members of 24-30 boxes.
    *(["crystal", "export", "--kind", kind, "--ell", ell, "--bound", bound, "--format", fmt]
      for kind, ell, bound in (("even", "1", "28"), ("odd", "2", "26"), ("odd", "3", "30"))
      for fmt in ("jsonl", "dot")),
    *(cmd for kind, ell, lam in (("odd", "1", "6,5,4,3,3,3,2,1"), ("even", "2", "7,5,4,3,3,2"),
                                 ("odd", "3", "7,7,7,6,2,1"),
                                 # one more member of 24-30 boxes for each of
                                 # the five bench kinds, with long runs of
                                 # equal parts (pair seats)
                                 ("odd", "1", "3,3,3,3,3,3,3,3,3,1"),
                                 ("odd", "2", "6,5,5,4,3,2,1"),
                                 ("odd", "3", "7,7,7,4,3,1"),
                                 ("even", "1", "5,3,2,2,2,2,2,2,2,2,1"),
                                 ("even", "2", "6,3,3,3,3,3,3,3,2,1"))
      for cmd in (["twisted", "path", "--kind", kind, "--ell", ell, lam],
                  ["eta", "--kind", kind, "--ell", ell, lam],
                  ["eta", "--kind", kind, "--ell", ell, "--check", lam])),
    # Fixed-side sizes past the bench's: the counts DP, its parity checks and
    # the listing walk.
    ["verify", "--kind", "odd", "--ell", "1", "--max-deg", "30"],
    ["verify", "--kind", "even", "--ell", "1", "--max-deg", "20", "--json"],
    ["verify", "--kind", "even", "--ell", "3", "--max-deg", "12"],
    ["alt-count", "-e", "3", "-n", "150"],
    ["alt-count", "-e", "4", "-n", "60"],
    ["fixed", "-e", "4", "-n", "40", "--profile"],
    ["fixed", "-e", "7", "-n", "49"],
    # Recorded while eta replayed the block expansion of a residue word.
    ["eta", "--kind", "odd", "--ell", "1", ODD1_THREES],
    ["eta", "--kind", "even", "--ell", "2", EVEN2_STAIRCASE],
    ["eta", "--kind", "odd", "--ell", "2", "--check", ODD2_500],
    ["eta", "--kind", "even", "--ell", "2", "--check", EVEN2_500],
    # The bench-size type A export and two at larger moduli, whose arrow order
    # is the BFS's: lam in lex order, x ascending.
    *(["crystal", "export", "--kind", "typea", "-e", e, "--bound", bound, "--format", fmt]
      for e, bound in (("3", "24"), ("7", "14"), ("50", "10")) for fmt in ("jsonl", "dot")),
]
PINNED_STDOUT_SHA256 = {
    "compute -e 3 3,1,1":
        "751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af",
    "compute -e 3 2":
        "660d27866c015bac26537ee8c3f4d4bd0822c690b976244961d61951e88520fb",
    "fixed -e 3 -n 5":
        "751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af",
    "fixed -e 3 -n 5 --profile":
        "61a84eb84769f68cb2af7082045e89a9dd788555a312f1a56acb2cbed49804b7",
    "crystal export --kind typea -e 3 --bound 4 --format dot":
        "347e055bfb3b6a84d48ce29e9df54e2ce509b07d36e7567ae390d47f46275df9",
    "crystal export --kind typea -e 3 --bound 4 --format jsonl":
        "c7c5f92e4e0e12c5a41a37f6f0490df4aedc65f51f4262e2592a3b6c155b0c4e",
    "crystal export --kind odd --ell 1 --bound 5 --format jsonl":
        "4fda8f9ee4c056f1130b5c6761b34d505f6edc694c530baf2fc76462172dc820",
    "crystal export --kind even --ell 2 --bound 5 --format dot":
        "1169b31f5e90cba7a5442e3063169429090a5ab7a7d7b099536b1bbff1cd0ce4",
    "twisted path --kind odd --ell 1 2,1":
        "fba560352a58f4d1cf525fda438ae639f5c65703fd54347ec22766f186ca0270",
    "eta --kind odd --ell 1 2":
        "751bc88f91111d0040a8878aa8c63eab5b6091ea729d7a0e011fe5ba730480af",
    "eta --kind odd --ell 1 --check 2,1":
        "72191f16e781fa558b168b356af72d6c447a974dc886b0e653cca31dbc3f561a",
    "bijection dp2sp 4,2,1":
        "ca2b9370e058843a96e0b5eeac153d43959fe5423aa53a5875fce5c1eb9bb3cd",
    "bijection sp2dp 4,3,3,1":
        "0f92702152b4a3299d311294b8e99d60bf39625d2e09922a325b35898330b826",
    "fold-cartan -e 5":
        "5db4110dade615e35ee4096edf5e395959d2b5da8b776f51dcc923b314466582",
    "verify --kind odd --ell 1 --max-deg 2":
        "014d5aec8a225a1e088a09a6b9c36d8535a17216074efd326692eb395ae35715",
    "verify --kind even --ell 1 --max-deg 4 --json":
        "9955d5baa875c21fea426cff7aa1c069926fe9c252cd9dac02b8dba90dd3ab78",
    "alt-count -e 3 -n 5":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "crystal export --kind typea -e 3 --bound 10 --format jsonl":
        "0c62e0a3df04747db75dc5b571a41270bbb2e66ddab2c681faade79f3f6510f7",
    "crystal export --kind odd --ell 2 --bound 12 --format dot":
        "b36b412ab9dda64ea589578382b92af012ecdbdd7d21758ddc714d769c443eef",
    # Recorded from the cached `mull fixed` route, before it printed from fixed_set.
    "fixed -e 2 -n 12 --profile":
        "d56ac514672214903ffe1226deb1d1657f3371fc3cf840fa8aa0b877159d3874",
    "fixed -e 3 -n 2":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fixed -e 4 -n 16":
        "9210283d2e6804963cd03e58decdae52e8c7ce32812564469192a9095a723b9d",
    "alt-count -e 2 -n 30":
        "fbbbdc7231dc30612154b1808efeaf4b6f7e8756db6c205e6ff94579e0ba8aa0",
    # Recorded before the twisted kernel became one bottom-up pass over the rows.
    "crystal export --kind even --ell 1 --bound 28 --format jsonl":
        "71fdee1d792dea4666fac73a0472824639650b005107dc66bfbd08d5d110a7d0",
    "crystal export --kind even --ell 1 --bound 28 --format dot":
        "616034f9402f61e72881c13b16c5462d11d63c20cc3347f648663cd78b62fc24",
    "crystal export --kind odd --ell 2 --bound 26 --format jsonl":
        "b87a79982de5011623ad6c5ed9fec911454c1fd14edaeb53e80158a4a4865697",
    "crystal export --kind odd --ell 2 --bound 26 --format dot":
        "2eb5ff63771551e99331990197cbbdeaa774e5f1e9b7b362c1214b17de9b836c",
    "crystal export --kind odd --ell 3 --bound 30 --format jsonl":
        "ed1728211ab80e4aa9ce66835813f1d64431fef270933e168df18723f33c8188",
    "crystal export --kind odd --ell 3 --bound 30 --format dot":
        "1df12659d4b650b67638474b5af6c44a4a8faa886a50ec32d49efdcb05ec6511",
    "twisted path --kind odd --ell 1 6,5,4,3,3,3,2,1":
        "6b3a481891ac87f372a36e87d4135b5c951a87f25e02bd1d71e359a20cd7c2ba",
    "eta --kind odd --ell 1 6,5,4,3,3,3,2,1":
        "97be82ac8d7ef9b65eb5850dbbe5ad47b2131beb06cc3c3bc1b3731d8f39182a",
    "eta --kind odd --ell 1 --check 6,5,4,3,3,3,2,1":
        "cff2e41732d7adef147dea1059b9d0af50fa9153747340ecbaa583d8ad78b342",
    "twisted path --kind even --ell 2 7,5,4,3,3,2":
        "09313da5d7033d76b8fa694dd595e9ade72d47d76523823b041bb38fe25b4897",
    "eta --kind even --ell 2 7,5,4,3,3,2":
        "35c0b712670347add96b044f7f2d9f5cef99a6db6bc8dc0d02ce720b54afdf3e",
    "eta --kind even --ell 2 --check 7,5,4,3,3,2":
        "32bb519ee03330c297f6c6d789ddff77290a9b8dedb2ee6f5d25e03753746a89",
    "twisted path --kind odd --ell 3 7,7,7,6,2,1":
        "b7e4a51a4bbbcbdd068881f8bfdd258b456f54ddbd8aa10a3f20a7a6be868434",
    "eta --kind odd --ell 3 7,7,7,6,2,1":
        "37c82870b26e12d4a2ac376334486d15723170df9cdf5bd14ea1a9e19201a09c",
    "eta --kind odd --ell 3 --check 7,7,7,6,2,1":
        "b96f63136f64c8f5af910f22d2bc347a88e8982a3e4f2ebe8a425f88b81b91a2",
    # Recorded before the strip and the replay moved onto mutable rows.
    "twisted path --kind odd --ell 1 3,3,3,3,3,3,3,3,3,1":
        "21e8c4781f3bc5df1eb1c0669a1f78a84cf7622f50f0c99ad00efcaf56f5943a",
    "eta --kind odd --ell 1 3,3,3,3,3,3,3,3,3,1":
        "4a738b6c93005710d172a5e08b94dea57a2a2b02b7c3675be7873267faaa7319",
    "eta --kind odd --ell 1 --check 3,3,3,3,3,3,3,3,3,1":
        "1f534923abb3f6807a672d4d2bd2eb26c6fd31a1d25ca1e28036bdc23f06e3b2",
    "twisted path --kind odd --ell 2 6,5,5,4,3,2,1":
        "5ac717b6586f33af317b8ca70ea960513a7a2fc7f643cf8beff81a7f783fd600",
    "eta --kind odd --ell 2 6,5,5,4,3,2,1":
        "e225bdfb13df1a1b55364de5a15b6fbfc0136333086ac550d428d6353d36077b",
    "eta --kind odd --ell 2 --check 6,5,5,4,3,2,1":
        "ad6fd213ace2715b9c0442bc38e74572c966fabd8ee0fa2ea819cb53b8dbaf46",
    "twisted path --kind odd --ell 3 7,7,7,4,3,1":
        "8b65454458bd8ef8f7bed678b307be64ff88651aeed927572f61d34b3b48d1c2",
    "eta --kind odd --ell 3 7,7,7,4,3,1":
        "5f926bbca73605ec0334c475c2f634c49865bda3c59dbc547fd350369baec330",
    "eta --kind odd --ell 3 --check 7,7,7,4,3,1":
        "069be67c68404c7b7ed03bd4836e4d0b295baad3079184f1c8b4b42fcbfdca30",
    "twisted path --kind even --ell 1 5,3,2,2,2,2,2,2,2,2,1":
        "43641c61a24ca4d8eb4f4da1bb1126319b23f19ada1025af8f249c3676e81a57",
    "eta --kind even --ell 1 5,3,2,2,2,2,2,2,2,2,1":
        "2d2c0f06cb118b6e778e7cca732261c17d6316f075b58f42e83bac242076a364",
    "eta --kind even --ell 1 --check 5,3,2,2,2,2,2,2,2,2,1":
        "bfbe91e8e9daadbb17ee61e511874d7ba5980d5051a27a36db5073f323d3263c",
    "twisted path --kind even --ell 2 6,3,3,3,3,3,3,3,2,1":
        "8f7b8d3fa2f3af462f7007ca9b4e56cb50c2aa80bbfc024c6b91171ad7af5789",
    "eta --kind even --ell 2 6,3,3,3,3,3,3,3,2,1":
        "fccfd1effb61de852602a66a8eccbd0257ce524550207ec90d59e88d89c41cf0",
    "eta --kind even --ell 2 --check 6,3,3,3,3,3,3,3,2,1":
        "32d4bf8c5f1c38daba70df98415e2a5178d025b58574c5bd8fc9b25cc7863981",
    # Recorded while the fixed side was grown level by level as rim parents.
    "verify --kind odd --ell 1 --max-deg 30":
        "576f4a47e6847441621a355e794824785345fa03606e03d24f573265f38ae4c9",
    "verify --kind even --ell 1 --max-deg 20 --json":
        "b15a7bf1699f69c8911d58b573db76a6ad48a3a307f57a1e23ddcbcb72615381",
    "verify --kind even --ell 3 --max-deg 12":
        "0a097baa02bac4ccaf6d885aadc765ef11808b8f395c9d9e74118b52c6697937",
    "alt-count -e 3 -n 150":
        "1577ca2a69e795f6ee5d9fd1c035fafd39851feec30bf519b38beb5b622eb098",
    "alt-count -e 4 -n 60":
        "cce43b00e72806a732433d4c523f3bdd93d852370a4f9d498d47dba5d2dc17ed",
    "fixed -e 4 -n 40 --profile":
        "942a9c90bc475a187ff00e6d52b2003e0716882d1e5ad8be6dd195c7b3261751",
    "fixed -e 7 -n 49":
        "4a555a545c15bd8e7b0937a86a6a3dd1a51b22e0c919d1675b60c562795fefc7",
    f"eta --kind odd --ell 1 {ODD1_THREES}":
        "8996813be264991ce72d45b64752cf69c48655ff9df559f482a24f86df8b787f",
    f"eta --kind even --ell 2 {EVEN2_STAIRCASE}":
        "d12ec48144a84d3e0f672c751c5f689610b8c9b62fdefcf35502bf1a0b5758c3",
    f"eta --kind odd --ell 2 --check {ODD2_500}":
        "8b841baf7643b3d1beebf64d8d4827bbca2bd1367bffe8788bcc0bdc889e3f83",
    f"eta --kind even --ell 2 --check {EVEN2_500}":
        "b1fb9d7f3baa8dab51dbe57ea897c174a9b82e89481762a8a466c85036038f21",
    # Recorded while the BFS took a move callback and a modulus.
    "crystal export --kind typea -e 3 --bound 24 --format jsonl":
        "9df8de118bd2d78364f5e37bba9bc1ac423c9c71dc58d770a3cbf28f5fbcdb8e",
    "crystal export --kind typea -e 3 --bound 24 --format dot":
        "eae627a56704ccdc67535f0596e907eb4eb154cb68407412f2374108cce81136",
    "crystal export --kind typea -e 7 --bound 14 --format jsonl":
        "980cd8e0ee45f54ae9d05075b523a21f153fbbdc0ad20fbd35576a80f80d1645",
    "crystal export --kind typea -e 7 --bound 14 --format dot":
        "efe0d3865808b974f64f75f8da67584e2b2f5e54653a2cda4804bb2032a21f6e",
    "crystal export --kind typea -e 50 --bound 10 --format jsonl":
        "d50befbcdc2fbd0caa1788487818dde69d5ccf490f5fd5e6d630bd81d153f13d",
    "crystal export --kind typea -e 50 --bound 10 --format dot":
        "c313a6af01a280d8c53e6ee0964d5a7af99442688752160a70d5d09c72345b11",
}


@pytest.mark.parametrize("args", PINNED_COMMANDS, ids=argv_id)
def test_stdout_matches_pinned_digest(args, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_STDOUT_SHA256[" ".join(args)]


# Generated literals near MAX_BOXES, by (e, rows, repeat) of `stair`; recorded
# from the string-batched crystal route, before the image came from symbols.
PINNED_COMPUTE_SHA256 = {
    (2, 140, 1): "a7840d467c949010d4dc50ec55e940c56a2f3e817419ab0176666dcfbfde3fd3",
    (7, 56, 6): "403c9f1ea804f7fbdc1088ff91831e0d13920ff3bb7bf8919c9971e2cb1bf4b0",
    (1000, 4, 999): "c781078f1fb1089ed1f872bfabb24e3b9f9718869ddf47705cdb8f6ac3d64998",
}


@pytest.mark.parametrize("e, rows, repeat", PINNED_COMPUTE_SHA256)
def test_compute_stdout_on_large_literals_matches_pinned_digest(
        e, rows, repeat, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["compute", "-e", str(e), format_partition(stair(rows, repeat))]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_COMPUTE_SHA256[(e, rows, repeat)]


# (exit status, sha256 of stdout + stderr) of argparse's own text, at 80
# columns: usage lines, help pages and errors, recorded while every call built
# the parser of every subcommand.  A known command now builds only its own,
# and its usage line must still name all nine.
PINNED_ARGPARSE_TEXT = {
    "":
        (2, "8bb2a5ef635618e1cfe9b2ad1b3ac4d98459e391ece7d0cf294502c449891b1e"),
    "--help":
        (0, "db27f890c3340c7be8f1ec9ac51d0ada33ab41df02f1cbd32a4f0cade0d1da19"),
    "-h":
        (0, "db27f890c3340c7be8f1ec9ac51d0ada33ab41df02f1cbd32a4f0cade0d1da19"),
    "bogus":
        (2, "4af36ae3a56400ef0838cf105ac04a379fc4205499e93857ea6f55d4bb8daf1b"),
    "--help verify":
        (0, "db27f890c3340c7be8f1ec9ac51d0ada33ab41df02f1cbd32a4f0cade0d1da19"),
    "verify":
        (2, "bb318f501722c6f6521b879cebce794f2073be4ac6c0430ff9c3e6cf81f67b45"),
    "verify --help":
        (0, "554dc729c7df2042f3b385092d9275da532c18704f178e923484e702b42698b7"),
    "verify --kind odd --ell 1 --max-deg 2 extra":
        (2, "b7727229a39e296ba11c8eef8d0ec4d2119f5719a9c40e1c062ed2d1438bbdea"),
    "verify --kind odd --ell 1 --max-deg x":
        (2, "753fade70454e1c66060c92e8ed46cd4b3d171e977c37be020903a7ebca49f13"),
    "crystal":
        (2, "9e3884305651d3e65e4e874c41258307de5edc7fd189924905cf52b9f5a1173d"),
    "crystal --help":
        (0, "670b546f218d29a22a13ee2be9c7a91d1daacad52035fedc589e974ea13d3ae6"),
    "crystal export --help":
        (0, "5382bad720ef3d81f692cbda8e68de15498420c3baf2e56dfa1da41c6bddcd1b"),
    "crystal bogus":
        (2, "c5c6fab8d8cb4c02cd863a01c3ff1313eaeca447e4aa350732f367be6968e0e1"),
    "crystal export --kind typea --bound 3 --format dot extra":
        (2, "b7727229a39e296ba11c8eef8d0ec4d2119f5719a9c40e1c062ed2d1438bbdea"),
    "twisted path --help":
        (0, "28a1eac963de27029cd16c68095a2ccc233cee7ac0eee42c28be9efd8e7efddb"),
    "twisted":
        (2, "97800ae8b25dfcda6aa75e9e58dda84941d114f6fda32d03753c01442930c3e0"),
    "compute -e 3":
        (2, "2732ca015c1008f1d1db69b16fc8d7e111d38ec5283593456d6917bd73a8fbc2"),
    "fixed -e 3 -n x":
        (2, "6ed4e3c2e1346c6f26513da0fb5724dcf3712ac1e71902539ba7383fe121cfea"),
    "fixed --help":
        (0, "23ec7aec37c215810a0bd3c81d3e1ec57b3ae5933721505e1230c10847861c36"),
    "bijection xx 1":
        (2, "0144d7de88575ca9c2393d74ce2a97a4f24a24892b50745fbd6627a3caeb3d58"),
    "alt-count -e 3":
        (2, "e02758996142b10017dcf0b4d6340cb0738b1917dbec8a7f2a0598a34e7fdfe4"),
    "fold-cartan --help":
        (0, "17f76371d5ad22141a5e30a524bdf0b3a88bb9355ee457a517491a9104b2f962"),
    "eta --kind bad --ell 1 2":
        (2, "1a86871bcd99cc9e75273aa7c3e1a09a23e21f60cc85cd5f1ca33b4971507371"),
    "compute --bogus":
        (2, "460762fe1b6d096795237429bffe80f277fbbc242206d45f9b9b8ff8a486bae8"),
}


@pytest.mark.parametrize("argv", PINNED_ARGPARSE_TEXT)
def test_argparse_text_matches_pinned_digest(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out = capsys.readouterr()
    digest = hashlib.sha256((out.out + out.err).encode()).hexdigest()
    assert (exc.value.code, digest) == PINNED_ARGPARSE_TEXT[argv]


@pytest.mark.parametrize("argv", ["", "verify --kind odd --ell 1 --max-deg 2 extra"])
def test_argparse_text_of_a_process_matches_pinned_digest(argv, tmp_path):
    # `python -m mullineux` reaches main with argv=None, so it reads sys.argv.
    run = run_cli(argv.split(), tmp_path)
    digest = hashlib.sha256((run.stdout + run.stderr).encode()).hexdigest()
    assert (run.returncode, digest) == PINNED_ARGPARSE_TEXT[argv]


@pytest.mark.parametrize("argv, progs", [
    (["verify", "--kind", "odd", "--ell", "1", "--max-deg", "2"], ["mull", "mull verify"]),
    (["crystal", "export", "--kind", "typea", "-e", "3", "--bound", "4", "--format", "dot"],
     ["mull", "mull crystal", "mull crystal export"]),
])
def test_a_known_command_builds_only_its_own_parsers(argv, progs, capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == progs
    built.clear()
    with pytest.raises(SystemExit):  # an unknown name still builds the whole tree
        main(["bogus"])
    assert len(built) == 12


SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def run_script(name, args, tmp_path):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, env=cli_env(tmp_path),
    )


def test_identity_scan_script_passes(tmp_path):
    run = run_script("identity_scan.py",
                     ["--ells", "1", "--max-deg-odd", "3", "--max-deg-even", "4"], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("result: PASS") == 2


@pytest.mark.parametrize("name, args, message", [
    ("fixed_point_census.py", ["-e", "1"], "argument -e: must be at least 2, got 1"),
    ("fixed_point_census.py", ["--max-n", "-1"],
     "argument --max-n: must be non-negative, got -1"),
    ("identity_scan.py", ["--ells", "0"], "argument --ells: must be at least 1, got 0"),
    ("identity_scan.py", ["--max-deg-odd", "-1"],
     "argument --max-deg-odd: must be non-negative, got -1"),
    ("identity_scan.py", ["--max-deg-even", "-1"],
     "argument --max-deg-even: must be non-negative, got -1"),
])
def test_scripts_reject_out_of_range_values(tmp_path, name, args, message):
    run = run_script(name, args, tmp_path)
    assert run.returncode == 2 and run.stdout == ""
    errors = [line for line in run.stderr.splitlines() if "error:" in line]
    assert errors == [f"{name}: error: {message}"], run.stderr
    assert "Traceback" not in run.stderr


def test_fixed_point_census_script_runs(tmp_path):
    run = run_script("fixed_point_census.py", ["-e", "3", "--max-n", "8"], tmp_path)
    assert run.returncode == 0, run.stderr
    # Recorded before the script read its counts from the library; the last
    # line is the wall time.
    lines = run.stdout.splitlines(keepends=True)
    assert lines[-1].startswith("total time: ")
    assert hashlib.sha256("".join(lines[:-1]).encode()).hexdigest() == (
        "a59ef618e1a31a456dee43a99202b9047db7f2690bbe24e976b6993c26c362b5")
