import pytest
from helpers import reference_dot, reference_jsonl

from mullineux.export import graph_to_dot, graph_to_jsonl
from mullineux.partitions import CrystalKind
from mullineux.twisted import enumerate_twisted
from mullineux.typea import enumerate_kleshchev

HEADER = {"bound": 0, "ell": 1, "format": "mull.crystal", "kind": "odd", "version": 1}

GRAPHS = {
    "odd ell=1 bound 12": lambda: enumerate_twisted(CrystalKind.odd(1), 12),
    "odd ell=3 bound 10": lambda: enumerate_twisted(CrystalKind.odd(3), 10),
    "even ell=1 bound 12": lambda: enumerate_twisted(CrystalKind.even(1), 12),
    "even ell=2 bound 10": lambda: enumerate_twisted(CrystalKind.even(2), 10),
    "typea e=2 bound 12": lambda: enumerate_kleshchev(2, 12),
    "typea e=3 bound 10": lambda: enumerate_kleshchev(3, 10),
    # parts of two digits, up to 12
    "typea e=50 bound 12": lambda: enumerate_kleshchev(50, 12),
    "odd ell=1 bound 0": lambda: enumerate_twisted(CrystalKind.odd(1), 0),
    "even ell=2 bound 0": lambda: enumerate_twisted(CrystalKind.even(2), 0),
    "typea e=3 bound 0": lambda: enumerate_kleshchev(3, 0),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_renderers_match_the_record_by_record_reference(name):
    graph = GRAPHS[name]()
    assert graph_to_dot(graph) == reference_dot(graph)
    assert graph_to_jsonl(graph, HEADER) == reference_jsonl(graph, HEADER)


def test_bound_zero_renders_the_empty_partition():
    graph = enumerate_kleshchev(3, 0)
    assert graph_to_dot(graph) == 'digraph crystal {\n    "-";\n}\n'
    assert graph_to_jsonl(graph, HEADER).splitlines()[1:] == [
        '{"n":0,"partition":[]}', '{"edges":[]}']

