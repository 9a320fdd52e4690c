"""The benchmark's tracer wraps public names of cwf by layer; a name that
disappears from the package would break only a traced benchmark run, so
every entry is resolved here."""

import ast
import importlib
from pathlib import Path


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def _resolves(layer: str, attr: str) -> bool:
    owner = importlib.import_module(f"cwf.{layer}")
    for part in attr.split("."):  # "Cls.meth" names a method
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_layer_names_resolve():
    missing = [f"cwf.{layer}.{attr}" for layer, attrs in _layers().items()
               for attr in attrs if not _resolves(layer, attr)]
    assert not missing
