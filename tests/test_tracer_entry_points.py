"""The benchmark tracer (qfockbench/tracer.py) wraps qfock's entry points
by name, so a rename in qfock breaks a traced round.  This reads the
tracer's ENTRY_POINTS table from its source, without importing it, and
checks that every name resolves as the tracer looks it up: a function by
getattr on its module, a method in its class's own __dict__."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "qfockbench" / "tracer.py"


def entry_points() -> dict[str, list[str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS assignment in {TRACER}")


ENTRIES = [(layer, entry) for layer, entries in entry_points().items() for entry in entries]


@pytest.mark.parametrize("layer, entry", ENTRIES, ids=[f"{l}:{e}" for l, e in ENTRIES])
def test_entry_point_resolves(layer, entry):
    mod = importlib.import_module(f"qfock.{layer}")
    if "." in entry:
        cls_name, attr = entry.split(".")
        assert attr in vars(getattr(mod, cls_name)), entry
    else:
        assert callable(getattr(mod, entry, None)), entry
