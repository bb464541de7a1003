"""DOT and JSON-lines renderings of crystal graphs.

Output is deterministic: vertices in level order (lex within a level),
edges in generation order, JSON with sorted keys and fixed separators.
Each vertex's text is formatted once, as the vertices are listed, and the
edge records reuse it.
"""

from __future__ import annotations

import json

from .partitions import format_partition
from .typea import CrystalGraph


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_to_dot(graph: CrystalGraph) -> str:
    """DOT digraph; vertex ids are the canonical text encodings."""
    text = {lam: format_partition(lam) for level in graph.levels for lam in level}
    lines = ["digraph crystal {", *[f'    "{vertex}";' for vertex in text.values()]]
    lines += [f'    "{text[src]}" -> "{text[dst]}" [res={res}];' for src, dst, res in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_jsonl(graph: CrystalGraph, header: dict) -> str:
    """Header record, one {"n","partition"} record per vertex, then the edges."""
    text, lines = {}, [_dump(header)]
    for n, level in enumerate(graph.levels):
        for lam in level:
            text[lam] = parts = f"[{','.join(map(str, lam))}]"
            lines.append(f'{{"n":{n},"partition":{parts}}}')
    edges = ",".join([f'{{"from":{text[src]},"res":{res},"to":{text[dst]}}}'
                      for src, dst, res in graph.edges])
    lines.append(f'{{"edges":[{edges}]}}')
    return "\n".join(lines) + "\n"
