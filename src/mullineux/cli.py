"""Command-line front end (`mull`).

Output is deterministic byte-for-byte for identical invocations; only
`verify` caches (its counts table), with the same output cold or warm.
Exit status: 0 on success, 1 when a verification command finds a failure,
2 on usage errors, an unwritable cache and an unwritable stdout (one
`error: cannot write stdout:` line on stderr), 3 when an internal consistency
check fails (a bug, reported as one `internal error:` line on stderr).
A `mull` process whose stdout is closed early (`mull fixed ... | head -1`)
ends quietly by SIGPIPE where that signal exists: status 141 in a POSIX
shell, never one of 0-3.
`-e` and `--ell` above MAX_E, a negative `--bound`, crystal exports and
verify censuses of more than MAX_VERTICES vertices and sizes above MAX_BOXES
boxes (`-n`, `--bound`, the fixed size bound of `verify --max-deg`, partition
literals stripped or built box by box) are usage errors, rejected before any
work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .bijections import distinct_to_symmetric, symmetric_to_distinct
from .cache import ENV_VAR, Cache
from .characters import (CountsTable, character_series, counts_table, fixed_size_bound,
                         verify_identity)
from .export import _dump, graph_to_dot, graph_to_jsonl
from .folding import check_fold_relations, fold_cartan, unfold
from .involution import fixed_set, irr_alternating_count, mullineux
from .partitions import (CrystalKind, InternalConsistencyError, format_partition,
                         parse_partition, regular_counts, residue_counts)
from .twisted import canonical_path_twisted, enumerate_twisted
from .typea import enumerate_kleshchev

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# Far above any e or ell in use; it keeps kernel lists of length e small.
MAX_E = 1000
# Boxes in a partition literal, and the largest size a command may build.
MAX_BOXES = 10_000
MAX_VERTICES = 10 ** 6  # vertices of a crystal walk, read from the level sizes


def _kind_from(args) -> CrystalKind:
    return CrystalKind(args.kind, args.ell)


def cmd_compute(args) -> int:
    print(format_partition(mullineux(args.partition, args.e)))
    return EXIT_OK


def cmd_fixed(args) -> int:
    for lam in fixed_set(args.e, args.n):
        print(_dump({"n": args.n, "partition": lam, "residue_profile": residue_counts(lam, args.e)})
              if args.profile else format_partition(lam))
    return EXIT_OK


def _check_vertices(flag: str, bound: int, sizes) -> None:
    """Raise unless levels 0..bound hold at most MAX_VERTICES vertices, read
    from sizes(depth), the level sizes 0..depth, with depth doubling to the
    bound: O(depth^2) for a small depth."""
    depth = min(1, bound)
    while (total := sum(sizes(depth))) <= MAX_VERTICES and depth < bound:
        depth = min(2 * depth, bound)
    if total > MAX_VERTICES:
        raise ValueError(f"{flag} {bound}: levels 0..{depth} alone hold {total} "
                         f"vertices, at most {MAX_VERTICES}")


def cmd_crystal_export(args) -> int:
    if args.kind == "typea":
        if args.e is None:
            raise ValueError("--kind typea requires -e")
        if args.ell is not None:
            raise ValueError("--kind typea takes no --ell")
        param, value, build = "e", args.e, partial(enumerate_kleshchev, args.e)
        sizes = partial(regular_counts, args.e)
    else:
        if args.ell is None:
            raise ValueError(f"--kind {args.kind} requires --ell")
        if args.e is not None:
            raise ValueError(f"--kind {args.kind} takes no -e")
        param, value, build = "ell", args.ell, partial(enumerate_twisted, _kind_from(args))
        sizes = partial(character_series, _kind_from(args))
    _check_vertices("--bound", args.bound, sizes)
    graph = build(args.bound)
    sys.stdout.write(graph_to_dot(graph) if args.format == "dot" else graph_to_jsonl(
        graph, {"bound": args.bound, param: value, "format": "mull.crystal",
                "kind": args.kind, "version": 1}))
    return EXIT_OK


def cmd_twisted_path(args) -> int:
    kind = _kind_from(args)
    word = canonical_path_twisted(args.partition, kind)
    print(",".join(str(x) for x in word) if word else "-")
    return EXIT_OK


def cmd_eta(args) -> int:
    kind = _kind_from(args)
    if args.check:
        report = check_fold_relations(args.partition, kind)
        print(_dump(report.to_dict()))
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    print(format_partition(unfold(args.partition, kind)))
    return EXIT_OK


def cmd_bijection(args) -> int:
    image = (distinct_to_symmetric(args.partition) if args.direction == "dp2sp"
             else symmetric_to_distinct(args.partition))
    print(format_partition(image))
    return EXIT_OK


def cmd_fold_cartan(args) -> int:
    for row in fold_cartan(args.e).matrix:
        print(" ".join(str(entry) for entry in row))
    return EXIT_OK


def _counts_payload(e: int, bound: int) -> str:
    table = counts_table(e, bound)
    lines = [_dump({"count": count, "m": m, "mp": mp, "n": n})
             for (n, m, mp), count in sorted(table.counts.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def _table_from_payload(e: int, bound: int, payload: str) -> CountsTable:
    """Parse the payload's records, one JSON object a line, in one call."""
    records = json.loads("[" + ",".join(payload.splitlines()) + "]")
    return CountsTable(e, bound, {(rec["n"], rec["m"], rec["mp"]): rec["count"]
                                  for rec in records})


def cmd_verify(args) -> int:
    kind = _kind_from(args)
    bound = fixed_size_bound(kind, args.max_deg)
    if bound > MAX_BOXES:
        raise ValueError(f"--max-deg {args.max_deg} needs sizes to {bound}, at most {MAX_BOXES}")
    _check_vertices("--max-deg", args.max_deg, partial(character_series, kind))
    cache, key = Cache(), ("counts", f"e{kind.e}", f"s{bound}")
    if (payload := cache.get(key)) is None:
        payload = _counts_payload(kind.e, bound)
        try:
            cache.put(key, payload)
        except OSError as exc:  # caught here: in main it could be a broken stdout
            raise ValueError(f"cannot write the cache in {str(cache.root)!r} "
                             f"(set {ENV_VAR}): {exc.strerror or exc}") from exc
    table = _table_from_payload(kind.e, bound, payload)
    report = verify_identity(kind, args.max_deg, table=table)
    if args.json:
        print(_dump(report.to_dict()))
    else:
        print("degree lhs rhs-from-counts rhs-from-crystal status")
        for row in report.rows:
            status = "ok" if row.ok else "MISMATCH"
            print(f"{row.degree} {row.lhs} {row.rhs_counts} {row.rhs_crystal} {status}")
        print("PASS" if report.ok else "FAIL")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_alt_count(args) -> int:
    print(irr_alternating_count(args.e, args.n))
    return EXIT_OK


_E, _N = ("-e", {"type": int, "required": True}), ("-n", {"type": int, "required": True})
_KIND = ("--kind", {"choices": ("odd", "even"), "required": True})
_ELL, _LAM = ("--ell", {"type": int, "required": True}), ("partition", {})
# name: (help, handler, arguments, None or add_parser's keywords for one nested subcommand)
SUBCOMMANDS = {
    "compute": ("Mullineux image of an e-regular partition", cmd_compute, (_E, _LAM), None),
    "fixed": ("Mullineux-fixed partitions of n", cmd_fixed, (_E, _N, ("--profile", {
        "action": "store_true", "help": "emit JSON records with residue profiles"})), None),
    "crystal": ("crystal graph utilities", cmd_crystal_export, (
        ("--kind", {"choices": ("typea", "odd", "even"), "required": True}),
        ("-e", {"type": int}), ("--ell", {"type": int}),
        ("--bound", {"type": int, "required": True}),
        ("--format", {"choices": ("dot", "jsonl"), "required": True})),
        {"name": "export", "help": "export a level-bounded crystal graph"}),
    "twisted": ("twisted crystal utilities", cmd_twisted_path, (_KIND, _ELL, _LAM),
                {"name": "path", "help": "residue word from empty to a class member"}),
    "eta": ("Mullineux-fixed image of a twisted-crystal vertex", cmd_eta, (_KIND, _ELL, (
        "--check", {"action": "store_true",
                    "help": "emit the JSON relation report instead of the image"}), _LAM), None),
    "bijection": ("distinct-parts <-> symmetric partitions", cmd_bijection,
                  (("direction", {"choices": ("dp2sp", "sp2dp")}), _LAM), None),
    "fold-cartan": ("folded affine Cartan matrix for e", cmd_fold_cartan, (_E,), None),
    "verify": ("three-way check of the counting identity", cmd_verify, (
        _KIND, _ELL, ("--max-deg", {"type": int, "required": True}),
        ("--json", {"action": "store_true"})), None),
    "alt-count": ("irreducible count from the fixed-point formula", cmd_alt_count,
                  (_E, _N), None),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    _, _, arguments, nested = SUBCOMMANDS[name]
    if nested:
        parser = parser.add_subparsers(dest=f"{name}_command", required=True).add_parser(**nested)
    for flag, options in arguments:
        parser.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    """The whole `mull` tree, for its usage line, help page and errors."""
    parser = argparse.ArgumentParser(prog="mull", description="Mullineux involution, good-node "
                                     "crystals, and exact fixed-point counting identities on partitions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, *_) in SUBCOMMANDS.items():
        _add_command(sub.add_parser(name, help=text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in SUBCOMMANDS:  # its own parser prints what it would in the tree
        _add_command(parser := argparse.ArgumentParser(prog=f"mull {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:  # reported as the tree's parse_args reports them
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
    try:
        for flag, name, ceiling in (("-e", "e", MAX_E), ("--ell", "ell", MAX_E),
                                    ("-n", "n", MAX_BOXES), ("--bound", "bound", MAX_BOXES)):
            value = getattr(args, name, None)
            if value is not None and value > ceiling:
                raise ValueError(f"{flag} must be at most {ceiling}, got {value}")
        if getattr(args, "bound", 0) < 0:
            raise ValueError(f"--bound must be non-negative, got {args.bound}")
        if hasattr(args, "partition"):
            args.partition = lam = parse_partition(args.partition)
            if sum(lam) > MAX_BOXES:
                raise ValueError(f"partition literal has {sum(lam)} boxes, at most {MAX_BOXES}")
        return SUBCOMMANDS[args.command][1](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    import signal  # here, not at the top: its enums take about 1 ms to build
    if (sigpipe := getattr(signal, "SIGPIPE", None)) is not None:
        signal.signal(sigpipe, signal.SIG_DFL)  # not in main, which runs in process
    try:
        status = main()
        sys.stdout.flush()
    except OSError as exc:  # only stdout's: the cache turns its own into ValueError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        status = EXIT_USAGE
    sys.exit(status)


if __name__ == "__main__":
    console_main()
