"""Self-test of checks.py: every check must fail on outputs tampered to break it.

Run from the repository root:

    python3 perfbench/selftest.py

It runs a small gen -> train -> eval pipeline (6 households, 3/1/3 days,
2 CMA-ES generations of 4), checks that its outputs pass, then copies them
once per tampering, changes the copy, and shows that the named check now
fails. Exits 0 when every tampering is caught.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import run

SMALL = run.Workload(
    gen=(
        "--seed", "5", "--config", "households=6",
        "--config", "train_days=3", "--config", "tune_days=1", "--config", "test_days=3",
    ),
    kind="nn", inputs="a", optimizer="cma", iterations=2, popsize=4, eval_repeats=2,
)
TRAINED = SMALL.trained_name


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _shift(path: Path, step: int, grid_kw: float, charging_kw: float) -> None:
    """Add to the grid and charging columns of one loads_out row."""
    rows = _rows(path)
    row = rows[step + 1]
    row[2] = repr(float(row[2]) + grid_kw)
    row[3] = repr(float(row[3]) + charging_kw)
    _write(path, rows)


def _charging(path: Path) -> list[float]:
    return [float(r[3]) for r in _rows(path)[1:]]


def _set_summary(path: Path, name: str, factor: float) -> None:
    rows = _rows(path)
    for row in rows[1:]:
        if row[0] == name:
            row[1] = repr(float(row[1]) * factor)
    _write(path, rows)


def move_energy_out_of_window(rnd: Path, ds: checks.Dataset) -> None:
    """Move one step's charge (at most 1 kWh) to a step before any request arrives."""
    path = rnd / "eval0" / TRAINED / "loads_out.csv"
    charging = _charging(path)
    _, reqs = ds.split("test")
    early = min(r.arrive for r in reqs) - 1
    s = next(t for t, c in enumerate(charging) if c > 0)
    kw = min(charging[s], 1.0 / ds.step_hours)
    _shift(path, s, -kw, -kw)
    _shift(path, early, kw, kw)


def exceed_rate_limit(rnd: Path, ds: checks.Dataset) -> None:
    path = rnd / "eval0" / "max_charge" / "loads_out.csv"
    _, reqs = ds.split("test")
    r = reqs[0]
    limit = sum(q.max_kw for q in reqs if q.arrive <= r.arrive < q.depart)
    _shift(path, r.arrive, limit, limit)


def raise_oracle(rnd: Path, ds: checks.Dataset) -> None:
    """Set the oracle's std_kw just above the best controller's."""
    path = rnd / "eval0" / "summary.csv"
    rows = _rows(path)
    best = min(float(r[1]) for r in rows[1:] if r[0] not in ("no_charge", "oracle"))
    for row in rows[1:]:
        if row[0] == "oracle":
            row[1] = repr(best + 1e-3)
    _write(path, rows)


def raise_best_objective(rnd: Path, ds: checks.Dataset) -> None:
    path = rnd / "train_log.csv"
    rows = _rows(path)
    rows[-1][1] = repr(float(rows[-2][1]) * 1.01)
    _write(path, rows)


def miscount_evaluations(rnd: Path, ds: checks.Dataset) -> None:
    path = rnd / "train_log.csv"
    rows = _rows(path)
    rows[-1][3] = str(int(rows[-1][3]) + 1)
    _write(path, rows)


def lengthen_theta(rnd: Path, ds: checks.Dataset) -> None:
    path = rnd / "params.json"
    doc = json.loads(path.read_text())
    doc["theta"].append(0.0)
    path.write_text(json.dumps(doc))


def change_one_repeat(rnd: Path, ds: checks.Dataset) -> None:
    path = rnd / "eval1" / "summary.csv"
    path.write_text(path.read_text().replace("\n", "\r\n", 1))


# (check expected to fail, what the tampering does, tampering)
CASES = [
    ("conservation", "add 0.5 kW to one step's grid load",
     lambda rnd, ds: _shift(rnd / "eval0" / "const_charge" / "loads_out.csv", 100, 0.5, 0.0)),
    ("energy_total", "add 1 kW of charging, and the grid load it makes, at one step",
     lambda rnd, ds: _shift(rnd / "eval0" / "const_charge" / "loads_out.csv", 150, 1.0, 1.0)),
    ("cumulative_window", "move a kWh to a step before any request arrives",
     move_energy_out_of_window),
    ("rate_limits", "raise a step above the summed rate limit of its open requests",
     exceed_rate_limit),
    ("summary_std", "misstate the trained controller's std_kw by 1%",
     lambda rnd, ds: _set_summary(rnd / "eval0" / "summary.csv", TRAINED, 1.01)),
    ("no_charge_std", "misstate no_charge's std_kw by 1%",
     lambda rnd, ds: _set_summary(rnd / "eval0" / "summary.csv", "no_charge", 1.01)),
    ("oracle_bound", "raise the oracle's std_kw 1e-3 kW above the best controller's",
     raise_oracle),
    ("objective_monotone", "let the last best_objective rise", raise_best_objective),
    ("evaluation_budget", "add one to the final evaluation count", miscount_evaluations),
    ("theta_length", "append one value to theta", lengthen_theta),
    ("files_present", "delete a controller's load series",
     lambda rnd, ds: (rnd / "eval0" / "min_charge" / "loads_out.csv").unlink()),
    ("identical_outputs", "change one byte of a repeated eval's output", change_one_repeat),
]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    pipe = run.run_pipeline(SMALL, work / "run", 0.0)
    if pipe.failed:
        print("the small pipeline failed", file=sys.stderr)
        return 1
    clean = run.check_pipeline(SMALL, pipe)
    print(f"untouched outputs: {'pass' if not clean else clean}")
    missed = len(clean)
    for check, what, tamper in CASES:
        copy = work / check
        shutil.copytree(work / "run", copy)
        rnd = copy / "round0"
        tamper(rnd, pipe.dataset)
        pipe.rounds[0].directory = rnd
        found = run.check_pipeline(SMALL, pipe)
        caught = [f for f in found if f.startswith(check + ":")]
        print(f"{'caught' if caught else 'MISSED'}  {check:18s} {what}")
        for f in caught[:1]:
            print(f"        {f}")
        missed += not caught
    print(f"{len(CASES) - missed if not clean else 0} of {len(CASES)} tamperings caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
