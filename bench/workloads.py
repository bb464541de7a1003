"""Seeded inputs for the benchmark workloads, and the independent counting
oracles that their output checks compare against.

Nothing here imports the package under test.  The inputs therefore depend
only on the workload, the scale and the seed, never on the version of the
program being measured, and the oracles share no code with it.

A plan is a JSON-serialisable dict: the worker process replays it, and
`properties` records what the inputs look like (kind mix, sizes, repeat
share) so that a reader can tell which input properties a result rests on.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from functools import lru_cache

WORKLOADS = ("identity", "crystal-fold", "point-queries")

# `full` is the timed run, `trace` the smaller fixed plan of a traced run
# (its spans stay in memory), `tiny` a seconds-long smoke run for tests.
# A repetition runs one of a workload's `parts` interleaved parts of the
# plan, so that the operations of a run are spread over its whole length
# rather than bunched in one repetition: every parts-th verify kind, cold
# and then its warm repeats; every parts-th fold check, after the cold
# exports in part 0; every parts-th request.  A 40 s run repeats each of
# the 400 fold checks about seven times, so that its fastest run is a
# steady measure.
SCALES = {
    "full": {
        "parts": {"identity": 3, "crystal-fold": 2, "point-queries": 4},
        "verify_kinds": [("odd", 1, 10), ("odd", 2, 8), ("even", 2, 14)],
        "warm_repeats": 70,
        "exports": [("even", 1, 28), ("odd", 2, 26), ("odd", 3, 30), ("typea", 3, 24)],
        "fold_checks": 400,
        "queries": 5000,
        "query_sizes": (10, 60),
        "twisted_query_sizes": (8, 24),
    },
    "trace": {
        "parts": {"identity": 1, "crystal-fold": 1, "point-queries": 1},
        "verify_kinds": [("odd", 1, 10), ("odd", 2, 8), ("even", 2, 14)],
        "warm_repeats": 5,
        "exports": [("even", 1, 28), ("odd", 2, 26), ("odd", 3, 30), ("typea", 3, 24)],
        "fold_checks": 200,
        "queries": 1000,
        "query_sizes": (10, 60),
        "twisted_query_sizes": (8, 24),
    },
    "tiny": {
        "parts": {"identity": 3, "crystal-fold": 2, "point-queries": 2},
        "verify_kinds": [("odd", 1, 3), ("odd", 2, 2), ("even", 2, 4)],
        "warm_repeats": 2,
        "exports": [("even", 1, 8), ("odd", 2, 8), ("odd", 3, 8), ("typea", 3, 6)],
        "fold_checks": 20,
        "queries": 1000,
        "query_sizes": (10, 30),
        "twisted_query_sizes": (2, 10),
    },
}

# Share of point-queries requests per operation; the rest are mullineux.
QUERY_MIX = (("twisted-path", 0.10), ("unfold", 0.10), ("dp2sp", 0.05), ("sp2dp", 0.05))
QUERY_KINDS = (("odd", 1), ("odd", 2), ("odd", 3), ("even", 1), ("even", 2))
QUERY_E = range(2, 8)


# ---------------------------------------------------------------- oracles

def all_partitions(n: int, max_part: int | None = None):
    """Every partition of n with parts at most max_part, largest first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def kind_e(parity: str, ell: int) -> int:
    return 2 * ell + 1 if parity == "odd" else 2 * ell


def kind_label(parity: str, ell: int, deg: int) -> str:
    return f"{parity} ell={ell} max-deg={deg} (e={kind_e(parity, ell)})"


def in_twisted_class(lam, parity: str, ell: int) -> bool:
    """Restricted e-strict (odd kind) or double restricted (ell+1)-strict
    (even kind): equal neighbours only on multiples of f, and each part's
    drop to the next (0 past the end) at most the gap bound, one less on
    multiples of f."""
    f = kind_e(parity, ell) if parity == "odd" else ell + 1
    bound = f if parity == "odd" else 2 * f
    for i, part in enumerate(lam):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if part == nxt and part % f:
            return False
        if part - nxt > (bound - 1 if part % f == 0 else bound):
            return False
    return True


@lru_cache(maxsize=None)
def twisted_members(parity: str, ell: int, n: int) -> tuple:
    """Class members of size n, sorted lexicographically."""
    return tuple(sorted(p for p in all_partitions(n) if in_twisted_class(p, parity, ell)))


def _product_series(exponents, trunc: int) -> list[int]:
    coeffs = [1] + [0] * trunc
    for i in exponents:
        for d in range(i, trunc + 1):
            coeffs[d] += coeffs[d - i]
    return coeffs


def twisted_series(parity: str, ell: int, trunc: int) -> list[int]:
    """Coefficients of prod 1/(1 - t^i) over odd i (not divisible by e for
    the odd kind): the twisted crystal's level sizes."""
    e = kind_e(parity, ell)
    return _product_series([i for i in range(1, trunc + 1, 2)
                            if parity == "even" or i % e], trunc)


def distinct_odd_counts(e: int, trunc: int) -> list[int]:
    """Partitions of n into distinct odd parts not divisible by e, n <= trunc;
    for odd e this is the number of Mullineux-fixed e-regular partitions of
    n (Andrews-Bessenrodt-Olsson)."""
    coeffs = [1] + [0] * trunc
    for i in range(1, trunc + 1, 2):
        if i % e:
            for d in range(trunc, i - 1, -1):
                coeffs[d] += coeffs[d - i]
    return coeffs


@lru_cache(maxsize=None)
def _regular_table(e: int, n_max: int) -> tuple:
    """table[n][k]: e-regular partitions of n with parts at most k."""
    table = [[1] * (n_max + 1)] + [[0] * (n_max + 1) for _ in range(n_max)]
    for k in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            table[n][k] = sum(table[n - m * k][k - 1]
                              for m in range(min(e - 1, n // k) + 1))
    return tuple(tuple(row) for row in table)


def regular_counts(e: int, trunc: int) -> list[int]:
    """Number of e-regular partitions of each n <= trunc."""
    table = _regular_table(e, trunc)
    return [table[n][n] for n in range(trunc + 1)]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return _product_series(range(1, n + 1), n)[n]


# ------------------------------------------------------------- generators

def random_regular_partition(rng: random.Random, n: int, e: int) -> tuple:
    """A uniformly random e-regular partition of n (e = 2: distinct parts)."""
    table = _regular_table(e, n)
    parts: list[int] = []
    remaining, k = n, n
    while remaining:
        pick = rng.randrange(table[remaining][k])
        for m in range(min(e - 1, remaining // k) + 1):
            weight = table[remaining - m * k][k - 1]
            if pick < weight:
                break
            pick -= weight
        parts += [k] * m
        remaining -= m * k
        k -= 1
    return tuple(parts)


def symmetric_from_distinct(lam) -> tuple:
    """The self-conjugate partition whose i-th diagonal hook has 2*l_i - 1
    boxes (Frobenius coordinates (l_i - 1 | l_i - 1))."""
    head = [part + i for i, part in enumerate(lam)]
    tail = [sum(1 for h in head if h >= j) for j in range(len(lam) + 1, (head or [0])[0] + 1)]
    return tuple(head + tail)


def fmt(lam) -> str:
    return ",".join(map(str, lam)) if lam else "-"


def _quartiles(values) -> list:
    if len(values) < 2:
        return list(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [min(values), q1, q2, q3, max(values)]


def _repeat_share(keys) -> float:
    return 1 - len(set(keys)) / len(keys) if keys else 0.0


def _identity_plan(rng: random.Random, scale: dict) -> dict:
    kinds = [list(kind) for kind in scale["verify_kinds"]]
    rng.shuffle(kinds)
    fixed_sizes = [(4 if parity == "odd" else 2) * deg for parity, _, deg in kinds]
    return {
        "kinds": kinds,
        "warm_repeats": scale["warm_repeats"],
        "properties": {
            "order": [kind_label(*kind) for kind in kinds],
            "e_mix": [kind_e(p, l) for p, l, _ in kinds],
            "fixed_size_bounds": fixed_sizes,
            "warm_verifies_per_kind_and_repetition": scale["warm_repeats"],
            "repeat_share": _repeat_share(
                [tuple(k) for k in kinds] * (1 + scale["warm_repeats"])),
        },
    }


def _crystal_fold_plan(rng: random.Random, scale: dict) -> dict:
    exports = [list(spec) for spec in scale["exports"]]
    population = [(parity, ell, fmt(lam))
                  for parity, ell, bound in exports if parity != "typea"
                  for n in range(1, bound + 1)
                  for lam in twisted_members(parity, ell, n)]
    checks = rng.sample(population, min(scale["fold_checks"], len(population)))
    sizes = [sum(map(int, text.split(","))) for _, _, text in checks]
    return {
        "exports": exports,
        "fold_checks": [list(c) for c in checks],
        "properties": {
            "exports": [f"{p} {'e' if p == 'typea' else 'ell'}={x} bound={b}"
                        for p, x, b in exports],
            "check_kind_mix": dict(Counter(f"{p}{l}" for p, l, _ in checks)),
            "check_size_min_q1_median_q3_max": _quartiles(sizes),
            "repeat_share": _repeat_share(checks),
        },
    }


def _query(rng: random.Random, scale: dict) -> list:
    lo, hi = scale["query_sizes"]
    roll = rng.random()
    for op, share in QUERY_MIX:
        if roll < share:
            break
        roll -= share
    else:
        e = rng.choice(QUERY_E)
        return ["mullineux", e, fmt(random_regular_partition(rng, rng.randint(lo, hi), e))]
    if op in ("twisted-path", "unfold"):
        parity, ell = rng.choice(QUERY_KINDS)
        tlo, thi = scale["twisted_query_sizes"]
        members = twisted_members(parity, ell, rng.randint(tlo, thi))
        return [op, parity, ell, fmt(rng.choice(members))]
    # Bijection inputs are distinct partitions of about half the target
    # size, so both directions see partitions of roughly lo..hi boxes.
    lam = random_regular_partition(rng, rng.randint(lo // 2, hi // 2), 2)
    return [op, fmt(lam if op == "dp2sp" else symmetric_from_distinct(lam))]


def _point_queries_plan(rng: random.Random, scale: dict) -> dict:
    requests, seen, draws = [], set(), 0
    while len(requests) < scale["queries"]:
        draws += 1
        if draws > 100 * scale["queries"]:
            raise ValueError("too few distinct requests of the configured sizes")
        req = _query(rng, scale)
        if tuple(req) not in seen:
            seen.add(tuple(req))
            requests.append(req)
    sizes = [sum(map(int, r[-1].split(","))) if r[-1] != "-" else 0 for r in requests]
    return {
        "requests": requests,
        "properties": {
            "op_mix": dict(Counter(r[0] for r in requests)),
            "mullineux_e_mix": dict(sorted(Counter(
                r[1] for r in requests if r[0] == "mullineux").items())),
            "size_min_q1_median_q3_max": _quartiles(sizes),
            "repeat_share": _repeat_share([tuple(r) for r in requests]),
            "partition_repeat_share": _repeat_share([r[-1] for r in requests]),
        },
    }


_PLANNERS = {
    "identity": _identity_plan,
    "crystal-fold": _crystal_fold_plan,
    "point-queries": _point_queries_plan,
}


def make_plan(workload: str, seed: int, scale: str = "full") -> dict:
    """The inputs of one workload; the same (workload, seed, scale) always
    gives the same plan."""
    rng = random.Random(f"{workload}/{seed}")
    plan = _PLANNERS[workload](rng, SCALES[scale])
    plan["workload"] = workload
    plan["parts"] = SCALES[scale]["parts"][workload]
    return plan
