"""Output checks for the gen -> train -> eval pipeline, computed apart from
the program.

Nothing here imports gridcharge. The dataset is read back from the files
`gen` wrote (loads.csv, requests.csv, splits.json) with the csv and json
modules, and every figure the program reports is recomputed from those
files and from the load series it wrote. Each check has a name; a check
function returns the list of failures, each prefixed by the name of the
check that found it, so that the self-test can show which check caught a
tampered file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

# Per-request energy tolerance, as promised by the README.
ENERGY_TOL_KWH = 1e-6
# Power comparisons: the program sums the same floats in another order.
POWER_TOL_KW = 1e-6
# Reported statistics are written with repr, so only summation order differs.
STAT_REL_TOL = 1e-9

BASELINES = ("no_charge", "max_charge", "min_charge", "const_charge")
# Learning-rate grid of the numerical-gradient trainer: one full-scenario
# evaluation per step size and iteration.
NUMGRAD_STEP_SIZES = 8


@dataclass(frozen=True)
class Request:
    arrive: int  # first step the car may charge
    depart: int  # first step it may not
    kwh: float
    max_kw: float


@dataclass(frozen=True)
class Dataset:
    start: datetime
    step_seconds: int
    base_total: list[float]  # summed household baseline per step, kW
    requests: list[Request]
    splits: dict[str, tuple[int, int]]

    @property
    def step_hours(self) -> float:
        return self.step_seconds / 3600.0

    @property
    def steps_per_day(self) -> int:
        return 86400 // self.step_seconds

    def split(self, name: str) -> tuple[list[float], list[Request]]:
        """Baseline totals and the requests wholly inside the split, with
        steps counted from the split's first step."""
        a, b = self.splits[name]
        reqs = [
            Request(r.arrive - a, r.depart - a, r.kwh, r.max_kw)
            for r in self.requests
            if r.arrive >= a and r.depart <= b
        ]
        return self.base_total[a:b], reqs


def read_dataset(directory: Path) -> Dataset:
    """Read a dataset directory written by `gen`."""
    step_seconds = None
    index: dict[str, int] = {}
    totals: list[float] = []
    rows_per_house: dict[str, int] = {}
    with open(directory / "loads.csv", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        for extra in header[3:]:
            key, _, value = extra.partition("=")
            if key == "step_seconds":
                step_seconds = int(value)
        for stamp, house, kw in reader:
            t = index.get(stamp)
            if t is None:
                t = index[stamp] = len(totals)
                totals.append(0.0)
            totals[t] += float(kw)
            rows_per_house[house] = rows_per_house.get(house, 0) + 1
    if step_seconds is None:
        raise ValueError("loads.csv header carries no step_seconds")
    if set(rows_per_house.values()) != {len(totals)}:
        raise ValueError("loads.csv: households do not share one time grid")
    stamps = sorted(index, key=index.get)
    start = datetime.fromisoformat(stamps[0])

    def step_of(stamp: str) -> int:
        seconds = (datetime.fromisoformat(stamp) - start).total_seconds()
        if seconds % step_seconds:
            raise ValueError(f"timestamp {stamp} is off the step grid")
        return int(seconds // step_seconds)

    for stamp in (stamps[1], stamps[-1]):
        if step_of(stamp) != index[stamp]:
            raise ValueError("loads.csv timestamps are not consecutive steps")

    requests = []
    with open(directory / "requests.csv", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for _house, arrive, depart, kwh, max_kw in reader:
            if float(kwh) > 0:  # a request for no energy asks for nothing
                requests.append(
                    Request(step_of(arrive), step_of(depart), float(kwh), float(max_kw))
                )
    doc = json.loads((directory / "splits.json").read_text())
    splits = {
        name: (int(r["start_step"]), int(r["end_step"]))
        for name, r in doc["splits"].items()
    }
    return Dataset(start, step_seconds, totals, requests, splits)


# ---------------------------------------------------------------------------
# eval outputs
# ---------------------------------------------------------------------------


def _read_series(path: Path) -> tuple[list[float], list[float]]:
    grid, charging = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for i, (step, _stamp, g, c) in enumerate(reader):
            if int(step) != i:
                raise ValueError(f"{path}: step column out of order at row {i + 2}")
            grid.append(float(g))
            charging.append(float(c))
    return grid, charging


def population_std(values: list[float]) -> float:
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def _close(a: float, b: float, rel: float = STAT_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_schedule(
    name: str, grid: list[float], charging: list[float], base: list[float],
    reqs: list[Request], step_hours: float, charges: bool,
) -> list[str]:
    """Energy conservation, request windows and rate limits of one load series."""
    fails = []
    n = len(base)
    if len(grid) != n:
        return [f"conservation: {name} has {len(grid)} steps, the split has {n}"]
    for t in range(n):
        if abs(grid[t] - charging[t] - base[t]) > POWER_TOL_KW:
            fails.append(
                f"conservation: {name} step {t}: grid {grid[t]!r} - charging "
                f"{charging[t]!r} != baseline {base[t]!r}"
            )
            break

    need = math.fsum(r.kwh for r in reqs) if charges else 0.0
    tol = ENERGY_TOL_KWH * max(1, len(reqs))
    got = math.fsum(charging) * step_hours
    if abs(got - need) > tol:
        fails.append(f"energy_total: {name} charged {got:.9f} kWh, requests need {need:.9f}")

    # Energy of requests arrived at or before t, departed by the end of step t,
    # and the rate limit summed over the requests open at t.
    arrived = [0.0] * n
    departed = [0.0] * n
    open_kw = [0.0] * (n + 1)
    open_count = [0] * (n + 1)
    for r in reqs:
        arrived[r.arrive] += r.kwh
        departed[r.depart - 1] += r.kwh
        open_kw[r.arrive] += r.max_kw
        open_kw[r.depart] -= r.max_kw
        open_count[r.arrive] += 1
        open_count[r.depart] -= 1
    cum = lo = hi = limit = 0.0
    n_open = 0
    window_fail = rate_fail = None
    for t in range(n):
        cum += charging[t] * step_hours
        lo += departed[t]
        hi += arrived[t]
        limit += open_kw[t]
        n_open += open_count[t]
        if window_fail is None and charges and not (lo - tol <= cum <= hi + tol):
            window_fail = (
                f"cumulative_window: {name} step {t}: {cum:.9f} kWh charged, departed "
                f"requests need {lo:.9f}, arrived ones hold {hi:.9f}"
            )
        c = charging[t]
        bad = c < 0.0 or (c != 0.0 and n_open == 0) or c > limit + POWER_TOL_KW
        if rate_fail is None and bad:
            rate_fail = (
                f"rate_limits: {name} step {t}: charging {c!r} kW with {n_open} open "
                f"requests allowing {limit:.6f} kW"
            )
    fails += [f for f in (window_fail, rate_fail) if f]
    return fails


def read_summary(path: Path) -> dict[str, float]:
    with open(path, newline="") as f:
        return {row["controller"]: float(row["std_kw"]) for row in csv.DictReader(f)}


def check_eval(ds: Dataset, split: str, out: Path, trained_name: str) -> list[str]:
    """All checks on one `eval` output directory."""
    base, reqs = ds.split(split)
    summary = read_summary(out / "summary.csv")
    expected = list(BASELINES) + [trained_name, "oracle"]
    if sorted(summary) != sorted(expected):
        return [f"files_present: summary.csv rows {sorted(summary)}, expected {sorted(expected)}"]
    n = len(base)
    warmup = ds.steps_per_day if n > ds.steps_per_day else 0

    fails = []
    for name in expected:
        path = out / "oracle" / "oracle_schedule.csv" if name == "oracle" else out / name / "loads_out.csv"
        if not path.is_file():
            fails.append(f"files_present: {path.relative_to(out)} missing")
            continue
        grid, charging = _read_series(path)
        fails += check_schedule(
            name, grid, charging, base, reqs, ds.step_hours, charges=name != "no_charge"
        )
        std = population_std(grid[warmup:])
        if not _close(summary[name], std):
            fails.append(
                f"summary_std: {name} reports {summary[name]!r} kW, its load series gives {std!r}"
            )

    ref = population_std(base[warmup:])
    if not _close(summary["no_charge"], ref):
        fails.append(
            f"no_charge_std: summary gives {summary['no_charge']!r} kW, loads.csv gives {ref!r}"
        )
    # no_charge serves no request, so it is no controller the bound covers.
    beaten = [n for n in expected[1:-1] if summary[n] < summary["oracle"] - STAT_REL_TOL]
    if beaten:
        fails.append(
            f"oracle_bound: oracle std {summary['oracle']!r} kW is above {beaten}"
        )
    return fails


# ---------------------------------------------------------------------------
# train outputs
# ---------------------------------------------------------------------------


def feature_count(inputs: str) -> int:
    """Controller inputs: 12 household-local features, plus 5 grid ones in mode 'a'."""
    return {"h": 12, "a": 17}[inputs]


def theta_length(kind: str, inputs: str, hidden: int = 5, reservoir: int = 100) -> int:
    d = feature_count(inputs)
    if kind == "nn":
        return hidden * d + hidden + hidden + 1  # W1, b1, w2, b2
    return reservoir + d + 1  # readout over reservoir state and inputs, bias


def evaluation_budget(optimizer: str, iterations: int, popsize: int, n_theta: int) -> int:
    """Objective evaluations the trainer spends: the start point, then per
    iteration a CMA-ES generation, or a forward-difference gradient plus one
    full run per probed step size."""
    if optimizer == "cma":
        return 1 + iterations * popsize
    return 1 + iterations * (n_theta + 1 + NUMGRAD_STEP_SIZES)


def check_training(
    log_path: Path, params_path: Path, *, kind: str, inputs: str, optimizer: str,
    iterations: int, popsize: int,
) -> list[str]:
    fails = []
    doc = json.loads(params_path.read_text())
    n_theta = theta_length(
        kind, inputs,
        hidden=doc.get("nn", {}).get("hidden_size", 5),
        reservoir=doc.get("esn", {}).get("reservoir_size", 100),
    )
    if (doc.get("kind"), doc.get("input_mode")) != (kind, inputs):
        fails.append(f"theta_length: params describe {doc.get('kind')}/{doc.get('input_mode')}")
    if len(doc.get("theta", [])) != n_theta:
        fails.append(f"theta_length: theta has {len(doc.get('theta', []))} values, expected {n_theta}")

    with open(log_path, newline="") as f:
        rows = list(csv.DictReader(f))
    if [int(r["iteration"]) for r in rows] != list(range(1, iterations + 1)):
        fails.append(f"evaluation_budget: log has {len(rows)} iterations, expected {iterations}")
        return fails
    best = [float(r["best_objective"]) for r in rows]
    rises = [i + 2 for i in range(len(best) - 1) if best[i + 1] > best[i]]
    if rises:
        fails.append(f"objective_monotone: best_objective rises at iterations {rises}")
    want = evaluation_budget(optimizer, iterations, popsize, n_theta)
    if int(rows[-1]["evaluations"]) != want:
        fails.append(
            f"evaluation_budget: final evaluations {rows[-1]['evaluations']}, budget gives {want}"
        )
    return fails


def same_files(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two output trees."""
    fa = {p.relative_to(a): p for p in sorted(a.rglob("*")) if p.is_file()}
    fb = {p.relative_to(b): p for p in sorted(b.rglob("*")) if p.is_file()}
    if sorted(fa) != sorted(fb):
        return [f"identical_outputs: {a} and {b} hold different file sets"]
    return [
        f"identical_outputs: {rel} differs between {a} and {b}"
        for rel in fa
        if fa[rel].read_bytes() != fb[rel].read_bytes()
    ]
