"""One benchmark repetition, run in a fresh interpreter.

    python bench/worker.py --src SRC --spawned-at T [--plan PLAN.json]
                           [--part J] [--skip-checks] [--trace-dir DIR]

Imports the package from SRC (never from an installed copy), reports the
set-up time from the spawn timestamp T (time.monotonic() in the parent) to
the end of `import mullineux`, then replays part J of the plan: a cold
phase, then closed-loop operations, each timed on its own.  Part J of
identity is every parts-th kind from the J-th on: a cold verify of each,
then its warm repeats.  Part J of crystal-fold is every parts-th fold
check from the J-th on, after every cold export when J is 0.  Part J of
point-queries is every parts-th request from the J-th on; it has no
separate cold phase, as each request of its one pass is both.  Each cold
item (a kind, an export, a request) is timed and reported by name.

Outputs are checked only after the timed phase, and a digest of every
output is returned, so that the parent can check a repetition run with
--skip-checks against an earlier, checked one.  With --trace-dir the timed
phase runs under the span tracer, which is removed before the checks.
Without --plan the process only measures set-up.  The last stdout line is
one JSON object.

MULLINEUX_CACHE_DIR must name an empty directory private to this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

CACHE_ENV = "MULLINEUX_CACHE_DIR"
MAX_REPORTED_ERRORS = 5


class Rep:
    """Timings, outcomes and first errors of one repetition."""

    def __init__(self, tracer=None, verify=True):
        self.tracer = tracer
        self.verify = verify
        self.cold: dict[str, float] = {}
        self.op_ms: list[float] = []
        self.op_ids: list[int] = []  # plan index of each operation's input
        self.op_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []

    def timed(self, root: str, fn, *args):
        """Run fn(*args) under a root span; return (seconds, result or the
        exception it raised)."""
        span = self.tracer.span(root) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # an op that raises is a failed op
                result = exc
                result.trace = traceback.format_exc()
            elapsed = time.perf_counter() - start
        return elapsed, result

    def check(self, label: str, result, verdict) -> None:
        """Count one op and record its output's digest; verdict(result)
        returns None when the output is right, else what is wrong with it."""
        self.attempted += 1
        self.digests.append(hashlib.sha1(repr(result).encode()).hexdigest()[:16])
        if isinstance(result, Exception):
            problem = getattr(result, "trace", repr(result))
        elif not self.verify:
            problem = None
        else:
            try:
                problem = verdict(result)
            except Exception:
                problem = traceback.format_exc()
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_REPORTED_ERRORS:
                self.errors.append(f"{label}: {problem}")

    def finish_tracing(self) -> None:
        if self.tracer:
            self.tracer.uninstall()

    def to_dict(self) -> dict:
        cold_s = sum(self.cold.values())
        return {"cold": self.cold, "cold_s": cold_s, "op_ms": self.op_ms,
                "op_ids": self.op_ids,
                "wall_s": cold_s + self.op_wall_s, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors, "digests": self.digests}


def _cli(argv):
    from mullineux import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _counts_payload(cache_dir: Path) -> str:
    """The counts payload a cold verify left in its private cache directory:
    the one cached text whose lines are {count, m, mp, n} records."""
    for path in sorted(cache_dir.iterdir()):
        payload = json.loads(path.read_text()).get("payload")
        if isinstance(payload, str):
            first = payload.split("\n", 1)[0]
            if first and set(json.loads(first)) == {"count", "m", "mp", "n"}:
                return payload
    raise ValueError(f"no counts payload in {cache_dir}")


def run_identity(plan: dict, cache_root: Path, rep: Rep, part: int) -> None:
    import workloads
    kinds = plan["kinds"][part::plan["parts"]]
    argvs = [["verify", "--kind", parity, "--ell", str(ell), "--max-deg", str(deg), "--json"]
             for parity, ell, deg in kinds]
    # One cache directory per kind, so each holds exactly one counts payload.
    dirs = [cache_root / f"kind{i}" for i in range(len(argvs))]

    def verify(i, root):
        os.environ[CACHE_ENV] = str(dirs[i])
        return rep.timed(root, _cli, argvs[i])

    cold = [verify(i, "bench.cold") for i in range(len(argvs))]
    rep.cold = {workloads.kind_label(*kind): elapsed for kind, (elapsed, _) in zip(kinds, cold)}
    cold_out = [r[1] if isinstance(r, tuple) else None for _, r in cold]
    start = time.perf_counter()
    warm = [(i, verify(i, "bench.op"))
            for _ in range(plan["warm_repeats"]) for i in range(len(argvs))]
    rep.op_wall_s = time.perf_counter() - start
    rep.op_ms = [elapsed * 1e3 for _, (elapsed, _) in warm]
    rep.op_ids = [part + i * plan["parts"] for i, _ in warm]
    rep.finish_tracing()

    def cold_verdict(i):
        parity, ell, deg = kinds[i]

        def verdict(result):
            code, out = result
            if code != 0 or not json.loads(out)["ok"]:
                return f"exit {code}, report {out.strip()}"
            if parity != "odd":
                return None
            e, bound = workloads.kind_e(parity, ell), 4 * deg
            fixed = [0] * (bound + 1)
            for line in _counts_payload(dirs[i]).splitlines():
                record = json.loads(line)
                fixed[record["n"]] += record["count"]
            expected = workloads.distinct_odd_counts(e, bound)
            if fixed != expected:
                return f"fixed counts per size {fixed} != distinct odd parts {expected}"
            return None
        return verdict

    for i, (_, result) in enumerate(cold):
        rep.check(" ".join(argvs[i]) + " (cold)", result, cold_verdict(i))
    for i, (_, result) in warm:
        rep.check(" ".join(argvs[i]) + " (warm)", result,
                  lambda r, i=i: None if r == (0, cold_out[i])
                  else f"warm result {r!r} differs from cold stdout")


def _export_argv(parity, x, bound, fmt):
    param = ["-e", str(x)] if parity == "typea" else ["--ell", str(x)]
    return ["crystal", "export", "--kind", parity, *param, "--bound", str(bound), "--format", fmt]


def run_crystal_fold(plan: dict, cache_root: Path, rep: Rep, part: int) -> None:
    import workloads
    from mullineux import folding, partitions
    os.environ[CACHE_ENV] = str(cache_root)
    # Only part 0 runs the cold exports, so that the fold checks, which
    # every part shares out, are timed in more repetitions of a run.
    exports = [(spec, fmt) for spec in plan["exports"] for fmt in ("jsonl", "dot")
               if part == 0]
    cold = [rep.timed("bench.cold", _cli, _export_argv(*spec, fmt)) for spec, fmt in exports]
    rep.cold = {" ".join(_export_argv(*spec, fmt)): elapsed
                for (spec, fmt), (elapsed, _) in zip(exports, cold)}
    kinds = {(p, ell): partitions.CrystalKind(p, ell) for p, ell, _ in plan["fold_checks"]}

    def fold_check(parity, ell, text):
        return folding.check_fold_relations(partitions.parse_partition(text), kinds[parity, ell])

    start = time.perf_counter()
    requests = plan["fold_checks"][part::plan["parts"]]
    checks = [rep.timed("bench.op", fold_check, *req) for req in requests]
    rep.op_wall_s = time.perf_counter() - start
    rep.op_ms = [elapsed * 1e3 for elapsed, _ in checks]
    rep.op_ids = [part + i * plan["parts"] for i in range(len(checks))]
    rep.finish_tracing()

    def export_verdict(spec, fmt):
        parity, x, bound = spec
        expected = (workloads.regular_counts(x, bound) if parity == "typea"
                    else workloads.twisted_series(parity, x, bound))

        def verdict(result):
            code, out = result
            if code != 0:
                return f"exit {code}"
            if _cli(_export_argv(parity, x, bound, fmt)) != (0, out):
                return "warm export differs from cold export"
            if fmt == "jsonl":
                found, want = [0] * (bound + 1), expected
                for line in out.splitlines()[1:-1]:
                    found[json.loads(line)["n"]] += 1
            else:
                found = sum(1 for line in out.splitlines()
                            if line.endswith('";') and "->" not in line)
                want = sum(expected)
            return None if found == want else f"vertices {found}, expected {want}"
        return verdict

    for (spec, fmt), (_, result) in zip(exports, cold):
        rep.check(" ".join(_export_argv(*spec, fmt)), result, export_verdict(spec, fmt))
    for (parity, ell, text), (_, result) in zip(requests, checks):
        expected_source = tuple(int(p) for p in text.split(","))
        rep.check(f"eta --check --kind {parity} --ell {ell} {text}", result,
                  lambda r, src=expected_source: None if r.ok and tuple(r.source) == src
                  else f"report {r.to_dict()}")


def run_point_queries(plan: dict, cache_root: Path, rep: Rep, part: int) -> None:
    from mullineux import bijections, folding, involution, partitions, twisted
    fmt, kind = partitions.format_partition, partitions.CrystalKind

    def query(req):
        """parse -> op -> format, through the functions the cmd_* handlers call."""
        op, lam = req[0], partitions.parse_partition(req[-1])
        if op == "mullineux":
            return fmt(involution.mullineux(lam, req[1]))
        if op == "twisted-path":
            word = twisted.canonical_path_twisted(lam, kind(req[1], req[2]))
            return ",".join(str(x) for x in word) if word else "-"
        if op == "unfold":
            return fmt(folding.unfold(lam, kind(req[1], req[2])))
        if op == "dp2sp":
            return fmt(bijections.distinct_to_symmetric(lam))
        return fmt(bijections.symmetric_to_distinct(lam))

    def verdict(req):
        op, lam = req[0], partitions.parse_partition(req[-1])

        def judge(out):
            if op == "twisted-path":
                word = () if out == "-" else tuple(int(x) for x in out.split(","))
                ok = (len(word) == sum(lam)
                      and twisted.replay_twisted(word, kind(req[1], req[2])) == lam)
            else:
                image = partitions.parse_partition(out)
                if op == "mullineux":
                    ok = sum(image) == sum(lam) and involution.mullineux(image, req[1]) == lam
                elif op == "unfold":
                    ok = involution.mullineux(image, kind(req[1], req[2]).e) == image
                elif op == "dp2sp":
                    ok = (partitions.is_symmetric(image)
                          and bijections.symmetric_to_distinct(image) == lam)
                else:
                    ok = (partitions.has_distinct_parts(image)
                          and bijections.distinct_to_symmetric(image) == lam)
            return None if ok else f"wrong answer {out}"
        return judge

    parts = plan["parts"]
    requests = plan["requests"][part::parts]
    answers = [rep.timed("bench.op", query, req) for req in requests]
    # Each request runs once in the one pass of a fresh process, so it is
    # both an operation and an item of this workload's cold pass over all
    # the requests; there is no separate operation phase.
    rep.cold = {f"request {part + i * parts}": elapsed
                for i, (elapsed, _) in enumerate(answers)}
    rep.op_ms = [elapsed * 1e3 for elapsed, _ in answers]
    rep.op_ids = [part + i * parts for i in range(len(answers))]
    rep.finish_tracing()
    for req, (_, out) in zip(requests, answers):
        rep.check(" ".join(map(str, req)), out, verdict(req))


RUNNERS = {
    "identity": run_identity,
    "crystal-fold": run_crystal_fold,
    "point-queries": run_point_queries,
}


def run_rep(plan: dict, cache_root: Path, tracer=None, verify=True, part=0) -> dict:
    """Replay one part of a plan in this process and check its outputs."""
    rep = Rep(tracer, verify)
    if tracer:
        tracer.install()
    try:
        RUNNERS[plan["workload"]](plan, cache_root, rep, part)
    finally:
        rep.finish_tracing()
    out = rep.to_dict()
    if tracer:
        out["layers"] = tracer.layer_metrics()
    return out


def peak_rss_mb() -> float:
    """High-water resident set of this process's own memory.  ru_maxrss is
    no good here: it keeps the high-water mark of the memory the process
    had before exec, which is the parent's."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--plan")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--skip-checks", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import mullineux
    setup_s = time.monotonic() - args.spawned_at
    src = Path(args.src).resolve()
    if src not in Path(mullineux.__file__).resolve().parents:
        print(f"error: imported {mullineux.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.plan:
        import spans
        plan = json.loads(Path(args.plan).read_text())
        tracer = spans.Tracer() if args.trace_dir else None
        result.update(run_rep(plan, Path(os.environ[CACHE_ENV]), tracer,
                              not args.skip_checks, args.part))
        if tracer:
            tracer.write(Path(args.trace_dir))
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
