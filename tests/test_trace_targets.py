"""The benchmark's traced run wraps gridcharge functions by name; every span it
reports must still find at least one function to wrap, and a traced pipeline
must still call it."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_traced_tiny_pipeline_calls_every_span(tmp_path):
    """gen, train nn-a+cma and esn-h+numgrad, and eval on a 2-household
    3/2/2-day dataset, with the tracer's wrappers installed. A wrapped name
    that still resolves but is no longer called shows here as a span with no
    calls."""
    tracer_module = _load_tracer()
    cli = importlib.import_module("gridcharge.cli")
    # The reservoir cache may already hold this build from another test,
    # which would hide the traced build_reservoir call.
    importlib.import_module("gridcharge.controllers")._shared_reservoir.cache_clear()
    data, report = tmp_path / "data", tmp_path / "report"
    nn, esn = tmp_path / "nn.json", tmp_path / "esn.json"
    commands = [
        ["gen", "--out", data, "--seed", 7, "--config", "households=2",
         "--config", "train_days=3", "--config", "tune_days=2", "--config", "test_days=2"],
        ["train", "--data", data, "--out", nn, "--controller", "nn", "--inputs", "a",
         "--optimizer", "cma", "--iterations", 2, "--popsize", 4, "--workers", 1],
        ["train", "--data", data, "--out", esn, "--controller", "esn", "--inputs", "h",
         "--optimizer", "numgrad", "--iterations", 1, "--reservoir-size", 20,
         "--window-hours", 12, "--objective-hours", 6, "--workers", 1],
        ["eval", "--data", data, "--out", report, "--params", nn, "--params", esn],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main([str(a) for a in argv]) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]

    metrics = tracer.metrics()
    not_numbers = sorted(k for k, v in metrics.items() if not isinstance(v, float))
    assert not not_numbers, f"per-layer metrics that are not numbers: {not_numbers}"
    # `names` gains an entry when a wrapper is installed; only `name_id`
    # records calls.
    called = {tracer.names[i] for i in np.unique(tracer.arrays()["name_id"])}
    never = sorted({span for span, _, _ in tracer_module.TARGETS} - called)
    assert not never, f"trace spans never called by the pipeline: {never}"
