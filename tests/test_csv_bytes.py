"""Every CSV writer produces exactly the bytes of a plain row-by-row
``csv.writer`` loop. The reference writers below are that loop, kept here so
that a faster writer can be checked against it byte for byte."""

import csv
from datetime import datetime, timezone

import numpy as np
import pytest

from gridcharge.data import TravelRecord, build_travel_pool, synth_scenario, write_travels_csv
from gridcharge.domain import (
    LOADS_HEADER,
    REQUESTS_HEADER,
    ChargingRequest,
    Scenario,
    SimResult,
    Timebase,
    load_scenario,
    save_scenario,
)
from gridcharge.simulator import load_changes, write_changes_csv, write_loads_out_csv

# Shortest repr extremes: zero, the smallest subnormal, a switch to exponent
# notation, and a sum whose repr needs all 17 digits.
FLOATS = [0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, 123456.789, 2.5]

TIMEBASES = [
    pytest.param(datetime(2026, 3, 2), 900, id="midnight-900"),
    pytest.param(datetime(2026, 3, 2, 7, 30), 1800, id="0730-1800"),
    pytest.param(datetime(2026, 3, 7, 23, 0), 3600, id="2300-3600"),
    pytest.param(datetime(2026, 3, 2, 5, 15, tzinfo=timezone.utc), 900, id="utc-0515-900"),
]

# Ids csv.writer must quote (delimiter, quote, line ends) and ids it leaves bare.
HOUSEHOLD_IDS = ["h,1", 'h"2', "h\r\n3", " h 4 ", "h5"]


def reference_save_scenario(scenario, directory):
    tb = scenario.timebase
    with open(directory / "loads.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOADS_HEADER + [f"step_seconds={tb.step_seconds}"])
        for hid, baseline in zip(scenario.household_ids, scenario.baseline):
            for t in range(tb.n_steps):
                w.writerow([tb.step_to_datetime(t).isoformat(), hid, repr(float(baseline[t]))])
    with open(directory / "requests.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REQUESTS_HEADER)
        for r in scenario.requests:
            w.writerow(
                [
                    r.household_id,
                    tb.step_to_datetime(r.t_arrive).isoformat(),
                    tb.step_to_datetime(r.t_depart).isoformat(),
                    repr(float(r.required_energy)),
                    repr(float(r.max_kw)),
                ]
            )


def reference_loads_out_csv(result, path):
    tb = result.timebase
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "timestamp", "grid_kw", "charging_kw_total"])
        totals = result.per_household_charging.sum(axis=0)
        for t in range(tb.n_steps):
            w.writerow(
                [
                    t,
                    tb.step_to_datetime(t).isoformat(),
                    repr(float(result.grid_load[t])),
                    repr(float(totals[t])),
                ]
            )


def reference_changes_csv(result, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["change_kw"])
        for v in load_changes(result):
            w.writerow([repr(float(v))])


def reference_travels_csv(records, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["day_of_week", "depart_s", "return_s"])
        for r in records:
            w.writerow([r.day_of_week, r.depart_s, r.return_s])


def quirky_scenario(start, step_seconds):
    """Every household id above, each baseline cycling through FLOATS from a
    different offset, and requests that end on the last step."""
    n_steps = 2 * len(FLOATS)
    tb = Timebase(start=start, n_steps=n_steps, step_seconds=step_seconds)
    baseline = [[FLOATS[(t + k) % len(FLOATS)] for t in range(n_steps)]
                for k in range(len(HOUSEHOLD_IDS))]
    requests = [
        req
        for k, hid in enumerate(HOUSEHOLD_IDS)
        for req in (
            ChargingRequest(hid, 1, 3, 0.1 + 0.2, 7.5),
            ChargingRequest(hid, 5 + k % 3, n_steps, 1e-7, 3.0),
        )
    ]
    return Scenario(tb, tuple(HOUSEHOLD_IDS), np.array(baseline), tuple(requests))


@pytest.mark.parametrize("start,step_seconds", TIMEBASES)
def test_save_scenario_bytes_match_row_writer(tmp_path, start, step_seconds):
    scenario = quirky_scenario(start, step_seconds)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    ref.mkdir()
    save_scenario(scenario, ours)
    reference_save_scenario(scenario, ref)
    for name in ("loads.csv", "requests.csv"):
        assert (ours / name).read_bytes() == (ref / name).read_bytes(), name
    back = load_scenario(ours)
    assert list(back.household_ids) == HOUSEHOLD_IDS
    assert np.array_equal(back.baseline, scenario.baseline)
    assert back.requests == scenario.requests


def test_save_scenario_bytes_match_on_a_generated_dataset(tmp_path):
    scenario, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=6)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    ref.mkdir()
    save_scenario(scenario, ours)
    reference_save_scenario(scenario, ref)
    for name in ("loads.csv", "requests.csv"):
        assert (ours / name).read_bytes() == (ref / name).read_bytes(), name


def quirky_result(start, step_seconds, warmup=2):
    n_steps = 3 * len(FLOATS)
    tb = Timebase(start=start, n_steps=n_steps, step_seconds=step_seconds)
    grid = np.array([(-1) ** t * FLOATS[t % len(FLOATS)] for t in range(n_steps)])
    charging = np.array(
        [[FLOATS[(t + k) % len(FLOATS)] for t in range(n_steps)] for k in range(3)]
    )
    return SimResult(
        timebase=tb, grid_load=grid, per_household_charging=charging, warmup_steps=warmup
    )


@pytest.mark.parametrize("start,step_seconds", TIMEBASES)
def test_loads_out_csv_bytes_match_row_writer(tmp_path, start, step_seconds):
    result = quirky_result(start, step_seconds)
    write_loads_out_csv(result, tmp_path / "ours.csv")
    reference_loads_out_csv(result, tmp_path / "ref.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("warmup", [0, 2, 3 * len(FLOATS) - 1])
def test_changes_csv_bytes_match_row_writer(tmp_path, warmup):
    result = quirky_result(datetime(2026, 3, 2), 900, warmup=warmup)
    write_changes_csv(result, tmp_path / "ours.csv")
    reference_changes_csv(result, tmp_path / "ref.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_travels_csv_bytes_match_row_writer(tmp_path):
    records = build_travel_pool(np.random.default_rng(4)) + [TravelRecord(6, 0, 86399)]
    write_travels_csv(records, tmp_path / "ours.csv")
    reference_travels_csv(records, tmp_path / "ref.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

