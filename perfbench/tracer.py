"""Timing wrappers put around gridcharge's public functions for a traced run.

Each wrapper is installed where the caller looks the name up: `simulator`
imports `history_block` by name, `optim` and `cli` import `make_controller`
and `build_reservoir` by name, and so on, so one function may be wrapped in
several module namespaces under one span name. A method is wrapped on its
class. Spans are kept in memory (name, parent, start, end) and aggregated
when the run ends; a layer's self time is its spans' durations minus the
durations of their direct children.

A target that a later change renames or removes is recorded as absent: the
metrics drawn from it are reported as absent and the run goes on.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path within the module) for every place a
# wrapped function is looked up.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("data.synth", "data", "synth_scenario"),
    ("domain.save", "domain", "save_scenario"),
    ("domain.save", "data", "save_scenario"),
    ("domain.load", "domain", "load_scenario"),
    ("domain.load", "data", "load_scenario"),
    ("simulator.build", "simulator", "SimKernel.__init__"),
    ("simulator.run", "simulator", "SimKernel.run"),
    ("simulator.write", "simulator", "write_loads_out_csv"),
    ("simulator.write", "simulator", "write_metrics_json"),
    ("simulator.write", "simulator", "write_changes_csv"),
    ("simulator.write", "cli", "write_loads_out_csv"),
    ("simulator.write", "cli", "write_metrics_json"),
    ("simulator.write", "cli", "write_changes_csv"),
    ("features.history_block", "features", "history_block"),
    ("features.history_block", "simulator", "history_block"),
    ("controllers.step", "controllers", "LearnedController.step"),
    ("controllers.forward", "controllers", "LearnedController.rates"),
    ("controllers.rule_step", "controllers", "RuleController.step"),
    ("controllers.make", "controllers", "make_controller"),
    ("controllers.make", "optim", "make_controller"),
    ("controllers.make", "cli", "make_controller"),
    ("controllers.reservoir", "controllers", "build_reservoir"),
    ("controllers.reservoir", "optim", "build_reservoir"),
    ("optim.ask", "optim", "CmaEs.ask"),
    ("optim.tell", "optim", "CmaEs.tell"),
    ("optim.map", "optim", "Evaluator.map_full"),
    ("optim.map", "optim", "Evaluator.map_window"),
    ("optim.gradient", "optim", "finite_difference_gradient"),
    ("optim.tune_smoothing", "optim", "tune_smoothing"),
    ("optim.tune_smoothing", "cli", "tune_smoothing"),
    ("oracle.total", "oracle", "optimal_schedule"),
    ("oracle.total", "cli", "optimal_schedule"),
    ("oracle.projection", "oracle", "project_capped_simplex"),
]


def _household_steps(args, kwargs, result):
    return result.per_household_charging.size


def _evaluations(args, kwargs, result):
    return len(result)


def _oracle_iterations(args, kwargs, result):
    return result.iterations


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


# Counters read from a wrapped call's arguments or result.
COUNTERS = {
    "simulator.run": ("simulator.household_steps", _household_steps),
    "optim.map": ("optim.evaluations", _evaluations),
    "oracle.total": ("oracle.iterations", _oracle_iterations),
    "simulator.write": ("simulator.bytes_written", _bytes_written),
}

# Per-layer metric -> (span name, what: total | self | calls), or a counter.
# Units live in BENCHMARK.json.
SPAN_METRICS = {
    "simulator.loop_self_s": ("simulator.run", "self"),
    "simulator.run_s": ("simulator.run", "total"),
    "simulator.runs": ("simulator.run", "calls"),
    "simulator.build_s": ("simulator.build", "total"),
    "simulator.builds": ("simulator.build", "calls"),
    "simulator.write_s": ("simulator.write", "total"),
    "features.history_block_s": ("features.history_block", "total"),
    "features.history_block_calls": ("features.history_block", "calls"),
    "controllers.forward_s": ("controllers.forward", "total"),
    "controllers.output_stage_s": ("controllers.step", "self"),
    "controllers.steps": ("controllers.step", "calls"),
    "controllers.rule_step_s": ("controllers.rule_step", "total"),
    "controllers.make_s": ("controllers.make", "total"),
    "controllers.reservoir_builds": ("controllers.reservoir", "calls"),
    "optim.ask_s": ("optim.ask", "total"),
    "optim.tell_s": ("optim.tell", "total"),
    "optim.generations": ("optim.tell", "calls"),
    "optim.dispatch_s": ("optim.map", "self"),
    "optim.gradient_self_s": ("optim.gradient", "self"),
    "optim.tune_smoothing_s": ("optim.tune_smoothing", "total"),
    "oracle.total_s": ("oracle.total", "total"),
    "oracle.projection_s": ("oracle.projection", "total"),
    "oracle.projection_calls": ("oracle.projection", "calls"),
    "oracle.self_s": ("oracle.total", "self"),
    "domain.load_s": ("domain.load", "total"),
    "domain.load_calls": ("domain.load", "calls"),
    "domain.save_s": ("domain.save", "total"),
    "data.synth_s": ("data.synth", "total"),
    "cli.self_s": ("cli.main", "self"),
}


class Tracer:
    """Installs the wrappers, records spans and counters, removes the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        counter = COUNTERS.get(name)
        stack, parent, start, end, name_id = (
            self._stack, self.parent, self.start, self.end, self.name_id
        )
        counters, absent = self.counters, self.absent

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                key, read = counter
                try:
                    counters[key] = counters.get(key, 0) + read(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    absent.add(key)
            return result

        return wrapper

    def install(self) -> None:
        found: dict[str, bool] = {}
        for name, module, path in TARGETS:
            try:
                owner = importlib.import_module(f"gridcharge.{module}")
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            found.setdefault(name, False)
            if fn is None:
                continue
            found[name] = True
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        self.absent |= {name for name, ok in found.items() if not ok}

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float | None]:
        """Per-layer figures; None marks a layer absent from the program."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        total = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        out: dict[str, float | None] = {}
        for metric, (span, what) in SPAN_METRICS.items():
            if span in self.absent:
                out[metric] = None
            elif span not in self.names:
                out[metric] = 0.0
            else:
                k = self.names.index(span)
                out[metric] = float({"total": total, "self": own, "calls": calls}[what][k])
        for span, (key, _) in COUNTERS.items():
            missing = span in self.absent or key in self.absent
            out[key] = None if missing else float(self.counters.get(key, 0))
        steps, run_s = out["simulator.household_steps"], out["simulator.run_s"]
        out["simulator.household_steps_per_s"] = (
            steps / run_s if steps is not None and run_s else None
        )
        return out
