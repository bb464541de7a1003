"""Independent oracles and inputs shared across test modules.

Everything here recomputes facts from first principles (cell sets, iterated
string deletion, direct recursive counting) so the library is checked
against a second route, not against itself.
"""

from __future__ import annotations

import random


def all_partitions(n, max_part=None):
    """Recursive generator, independent of the library's enumerator."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def diagram(lam):
    """Cell set of the Young diagram."""
    return {(r, c) for r, part in enumerate(lam, start=1)
            for c in range(1, part + 1)}


def from_diagram(cells):
    """Partition whose diagram is the given cell set, or None."""
    if not cells:
        return ()
    rows = {}
    for r, c in cells:
        rows.setdefault(r, set()).add(c)
    height = max(rows)
    if set(rows) != set(range(1, height + 1)):
        return None
    parts = []
    for r in range(1, height + 1):
        cols = rows[r]
        if cols != set(range(1, len(cols) + 1)):
            return None
        parts.append(len(cols))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return None
    return tuple(parts)


def conjugate_by_columns(lam):
    """Transpose via the cell set."""
    cells = diagram(lam)
    return from_diagram({(c, r) for r, c in cells})


def cancel_by_deletion(letters):
    """Iterated deletion of 'AR' substrings, tracking surviving positions."""
    items = list(enumerate(letters))
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            if items[i][1] == "A" and items[i + 1][1] == "R":
                del items[i:i + 2]
                changed = True
                break
    return [pos for pos, _ in items]


def count_partitions_with_parts(n, allowed):
    """Number of partitions of n into parts from the set `allowed`."""
    allowed = sorted(a for a in allowed if a <= n)

    def rec(remaining, idx):
        if remaining == 0:
            return 1
        total = 0
        for k in range(idx, len(allowed)):
            if allowed[k] > remaining:
                break
            total += rec(remaining - allowed[k], k)
        return total

    return rec(n, 0)


def distinct_partitions(n):
    """Partitions of n into pairwise distinct parts."""
    return [p for p in all_partitions(n)
            if all(p[i] > p[i + 1] for i in range(len(p) - 1))]


def symmetric_partitions(n):
    """Self-conjugate partitions of n."""
    return [p for p in all_partitions(n) if conjugate_by_columns(p) == p]


def distinct_odd_counts(e, max_n):
    """Andrews-Bessenrodt-Olsson 1994: for odd e, the number of partitions of
    n into distinct odd parts not divisible by e equals the number of
    Mullineux-fixed e-regular partitions of n.  Entry n, for n = 0..max_n."""
    counts = [1] + [0] * max_n
    for part in range(1, max_n + 1, 2):
        if part % e:
            for n in range(max_n, part - 1, -1):
                counts[n] += counts[n - part]
    return counts


def random_e_regular_partitions(e, count, min_size, max_size, seed):
    """count seeded e-regular partitions, sizes uniform in min_size..max_size,
    drawn part by part below a log-uniform width, each at most a random drop
    below the largest it may be (no part value e times); a draw that runs
    out of room starts over."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        left, parts = rng.randint(min_size, max_size), []
        width = min(left, round(left ** rng.random()))  # log-uniform
        drop = rng.randint(0, width)
        while left:
            top = min(left, parts[-1] if parts else width)
            if parts[-(e - 1):] == [top] * (e - 1):
                top -= 1
            if top < 1:
                break
            parts.append(rng.randint(max(1, top - drop), top))
            left -= parts[-1]
        if not left:
            out.append(tuple(parts))
    return out


def stair(rows, repeat):
    """rows, rows - 1, ..., 1, each part `repeat` times: e-regular for
    repeat < e, and with repeat = e - 1 the most rows for its size."""
    return tuple(part for part in range(rows, 0, -1) for _ in range(repeat))


def is_regular(lam, e):
    """No part value occurs e times."""
    return all(lam.count(part) < e for part in set(lam))


def e_rim(cells, e):
    """The e-rim of a diagram: walk the rim (cells with no cell down-right of
    them) from the top right, left along a row until a cell lies below, then
    down.  Each e-segment takes up to e cells of that walk; the next segment
    starts at the last cell of the row below the one the segment ended in."""
    ends = {}
    for r, c in cells:
        ends[r] = max(ends.get(r, 0), c)
    rim, start = set(), (1, ends[1])
    while start:
        cell = start
        for _ in range(e):
            rim.add(cell)
            last, (r, c) = cell, cell
            cell = (r + 1, c) if (r + 1, c) in cells else (r, c - 1) if c > 1 else None
            if cell is None:
                break
        below = last[0] + 1
        start = (below, ends[below]) if below in ends else None
    return rim


def mullineux_symbol(lam, e):
    """Mullineux's symbol: peel e-rims off the diagram, one column (rim size,
    rows) per peel."""
    cells, columns = diagram(lam), []
    while cells:
        rim = e_rim(cells, e)
        columns.append((len(rim), max(r for r, _ in cells)))
        cells -= rim
    return columns


def mullineux_on_symbol(columns, e):
    """The involution on symbols: (a, r) -> (a, a - r + eps), eps = 0 when e
    divides a and 1 otherwise (Mullineux's conjecture, Ford-Kleshchev 1997)."""
    return [(a, a - r + (1 if a % e else 0)) for a, r in columns]


def forbid_crystal(monkeypatch):
    """Make every walk of the type A crystal, and every boundary scan, raise."""
    from mullineux import involution, typea

    def refuse(*args):
        raise AssertionError("the crystal was walked")
    monkeypatch.setattr(typea, "crystal_edges", refuse)
    monkeypatch.setattr(involution, "crystal_edges", refuse)
    for kernel in ("_good_rows", "_cogood_rows", "_cogood_row"):
        monkeypatch.setattr(typea, kernel, refuse)


def largest_residue_word(lam, remove, modulus):
    """A second residue word for lam, apart from the library's strip: remove
    good nodes through the public raising operator remove(cur, x), always at
    the largest residue x that has one, and reverse the removal word."""
    word = []
    while lam:
        for x in range(modulus - 1, -1, -1):
            down = remove(lam, x)
            if down is not None:
                break
        else:
            raise AssertionError(f"{lam} has no good node")
        word.append(x)
        lam = down
    return tuple(reversed(word))


def unfold_by_largest(lam, kind):
    """unfold's image of lam, rebuilt by replaying the block expansion of its
    largest-residue word from e_twisted."""
    from mullineux.folding import expand_word
    from mullineux.twisted import e_twisted
    from mullineux.typea import replay_path

    word = largest_residue_word(lam, lambda cur, i: e_twisted(cur, i, kind), kind.modulus)
    return replay_path(expand_word(word, kind), kind.e)


def unfold_walk(kind, max_size):
    """Every twisted-crystal vertex whose unfolded image has at most max_size
    boxes, mapped to that image: the third fixed-point route, after the
    symbols and the brute-force map.  A pruned crystal_edges walk whose rows
    are the residues themselves: add(lam, x) takes the x-arrow lam -> mu and
    extends lam's image by the block expand_residue(x) through cogood
    additions, and is cut once the image would pass max_size, which is sound
    as every arrow grows the image by its block.  A vertex reached by a
    second arrow must get the same image."""
    from mullineux.folding import expand_residue
    from mullineux.twisted import f_twisted
    from mullineux.typea import add_cogood, crystal_edges

    images = {(): ()}

    def add(lam, x):
        image, block = images[lam], expand_residue(x, kind)
        mu = f_twisted(lam, x, kind)
        if mu is None or sum(image) + len(block) > max_size:
            return None
        for y in block:
            image = add_cogood(image, y, kind.e)
            assert image is not None, (lam, x)
        assert images.setdefault(mu, image) == image, (lam, x)
        return mu

    for _ in crystal_edges(lambda lam: range(kind.modulus), add, kind.modulus, max_size):
        pass
    return images


def fixed_levels(e, max_n):
    """The Mullineux-fixed partitions of sizes 0..max_n, a list per size in no
    set order: the route the library took before its column automaton, kept
    as the reference.  lam is fixed iff 2 r_i = a_i + eps_i in every symbol
    column, so peeling its e-rim leaves a fixed mu, takes a = 2r - 1 (e not
    dividing a) or 2r (e dividing a) nodes, and r <= len(mu) + e, as rows past
    len(mu) + 1 are 1s: each level is the rim parents of the smaller ones,
    tried for every (mu, r, a) that fits."""
    from mullineux.involution import _rim_parent

    levels = [[()]] + [[] for _ in range(max_n)]
    for size, level in enumerate(levels):
        for mu in level:
            for r in range(max(len(mu), 1), min(len(mu) + e, (max_n - size + 1) // 2) + 1):
                for a in (2 * r - 1, 2 * r):
                    if size + a <= max_n and (a % e == 0) == (a % 2 == 0):
                        lam = _rim_parent(mu, r, a, e)
                        if lam is not None:
                            levels[size + a].append(lam)
    return levels


def fixed_counts_by_residues(e, max_n):
    """fixed_levels grouped by (size, N_0, N_ell), ell = e // 2, with each
    partition's residues tallied by residue_counts."""
    from mullineux.partitions import residue_counts

    counts = {}
    for n, level in enumerate(fixed_levels(e, max_n)):
        for lam in level:
            profile = residue_counts(lam, e)
            key = (n, profile[0], profile[e // 2])
            counts[key] = counts.get(key, 0) + 1
    return counts


def peeled_symbol(lam, e):
    """Mullineux's symbol by the library's one-pass e-rim peel, outermost
    column (a, r) first."""
    from mullineux.involution import _peel_rim

    columns = []
    while lam:
        rows = len(lam)
        lam, a = _peel_rim(lam, e)
        columns.append((a, rows))
    return tuple(columns)


def rule_symbols(e, max_n):
    """Every symbol of at most max_n nodes, outermost column first, that
    Bessenrodt-Olsson's rule accepts: each column (a, r), with s = a - r + eps
    image rows (eps = 0 if e | a, else 1), and the next column inward, or the
    terminator (0, 0) below the last, satisfy eps <= r - r_inner <= e - 1 +
    eps and eps <= s - s_inner <= e - 1 + eps.  Grown from the terminator
    outward with an explicit stack."""
    found, stack = set(), [((), 0, 0, 0)]  # (columns innermost first, r, s, nodes)
    while stack:
        inner, r, s, n = stack.pop()
        found.add(inner[::-1])
        for a in range(1, max_n - n + 1):
            eps = 1 if a % e else 0
            for rows in range(r + eps, r + e + eps):
                if eps <= a - rows + eps - s <= e - 1 + eps:
                    stack.append((inner + ((a, rows),), rows, a - rows + eps, n + a))
    return found


def rim_tally(a, r, e):
    """Nodes of each residue in an e-rim of a nodes over r rows: a // e full
    segments hold every residue once, and the short last one, ending at node
    (r, 1), holds the residues k - r for k = 1..a % e."""
    tally = [a // e] * e
    for k in range(1, a % e + 1):
        tally[(k - r) % e] += 1
    return tally
