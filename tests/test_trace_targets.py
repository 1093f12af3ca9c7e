"""The benchmark's traced run wraps gridcharge functions by name; every span it
reports must still find at least one function to wrap."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"gridcharge.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_trace_span_resolves_to_a_callable():
    resolved: dict[str, list[str]] = {}
    for span, module, path in _load_tracer().TARGETS:
        found = resolved.setdefault(span, [])
        if callable(_resolve(module, path)):
            found.append(f"{module}.{path}")
    missing = sorted(span for span, found in resolved.items() if not found)
    assert resolved and not missing, f"trace spans with nothing to wrap: {missing}"
