import ast
import importlib
import os

BENCH_SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "spans.py")


def bench_targets():
    """(module, attr) of every TARGETS entry in bench/spans.py, read from its
    source so that the bench's own imports are not needed."""
    with open(BENCH_SPANS, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_bench_targets_resolve_in_the_package():
    # The bench wraps these by name; a missing one crashes a traced run.
    targets = bench_targets()
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"mullineux.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"mullineux.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"mullineux.{module}.{attr}"
