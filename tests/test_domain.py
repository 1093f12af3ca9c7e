"""Core data model: timebase math, validation, CSV IO."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge.domain import (
    ChargingRequest,
    Scenario,
    Timebase,
    load_scenario,
    save_scenario,
    slice_scenario,
)
from gridcharge.errors import ValidationError

MONDAY = datetime(2026, 3, 2)


def one_household(n_steps=8, baseline=1.0, requests=(), step_seconds=900):
    tb = Timebase(start=MONDAY, n_steps=n_steps, step_seconds=step_seconds)
    return Scenario(tb, ("h000",), np.full((1, n_steps), baseline), tuple(requests))


# --- Timebase ---------------------------------------------------------------


def test_timebase_defaults():
    tb = Timebase(start=MONDAY, n_steps=96)
    assert tb.step_seconds == 900
    assert tb.step_hours == 0.25
    assert tb.steps_per_day == 96
    assert tb.steps_per_hour == 4


def test_timebase_rejects_step_not_dividing_day():
    with pytest.raises(ValidationError):
        Timebase(start=MONDAY, n_steps=10, step_seconds=7000)
    with pytest.raises(ValidationError, match="divisor of 3600"):
        Timebase(start=MONDAY, n_steps=10, step_seconds=7200)
    with pytest.raises(ValidationError):
        Timebase(start=MONDAY, n_steps=10, step_seconds=0)
    with pytest.raises(ValidationError):
        Timebase(start=MONDAY, n_steps=0)


def test_step_datetime_round_trip():
    tb = Timebase(start=MONDAY, n_steps=200)
    for t in (0, 1, 95, 96, 199):
        assert tb.datetime_to_step(tb.step_to_datetime(t)) == t
    assert tb.step_to_datetime(96) == MONDAY + timedelta(days=1)


def test_datetime_to_step_rejects_misaligned():
    tb = Timebase(start=MONDAY, n_steps=10)
    with pytest.raises(ValidationError):
        tb.datetime_to_step(MONDAY + timedelta(seconds=450))


def test_seconds_of_day_wraps():
    tb = Timebase(start=MONDAY.replace(hour=23), n_steps=10)
    assert tb.seconds_of_day(0) == 23 * 3600
    assert tb.seconds_of_day(4) == 0  # crossed midnight


def test_day_of_week():
    tb = Timebase(start=MONDAY, n_steps=96 * 7)
    assert tb.day_of_week(0) == 0
    assert tb.day_of_week(96 * 5) == 5  # Saturday


# --- Request and scenario validation ---------------------------------------


def test_request_validation():
    with pytest.raises(ValidationError):
        ChargingRequest("h0", t_arrive=5, t_depart=5, required_energy=1, max_kw=3)
    with pytest.raises(ValidationError):
        ChargingRequest("h0", t_arrive=0, t_depart=4, required_energy=-1, max_kw=3)
    with pytest.raises(ValidationError):
        ChargingRequest("h0", t_arrive=0, t_depart=4, required_energy=1, max_kw=0)
    for energy, max_kw in [(math.nan, 3), (math.inf, 3), (1, math.nan), (1, math.inf)]:
        with pytest.raises(ValidationError, match="finite"):
            ChargingRequest("h0", t_arrive=0, t_depart=4, required_energy=energy, max_kw=max_kw)


def test_scenario_rejects_wrong_baseline_length():
    tb = Timebase(start=MONDAY, n_steps=8)
    with pytest.raises(ValidationError, match="length"):
        Scenario(tb, ("h0",), np.ones((1, 5)))


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_scenario_rejects_negative_and_nonfinite_baseline(bad):
    base = np.ones((1, 8))
    base[0, 3] = bad
    with pytest.raises(ValidationError):
        Scenario(Timebase(start=MONDAY, n_steps=8), ("h0",), base)


@pytest.mark.parametrize("bad,what", [(-0.1, "negative"), (np.nan, "non-finite"),
                                       (np.inf, "non-finite")])
def test_scenario_names_the_household_of_a_bad_baseline_row(bad, what):
    base = np.ones((3, 8))
    base[1, 5] = bad
    with pytest.raises(ValidationError, match=f"^household h1: baseline has {what} values$"):
        Scenario(Timebase(start=MONDAY, n_steps=8), ("h0", "h1", "h2"), base)


def test_scenario_rejects_a_request_of_an_unknown_household():
    with pytest.raises(ValidationError, match="unknown household 'h9'"):
        Scenario(Timebase(start=MONDAY, n_steps=8), ("h0",), np.ones((1, 8)),
                 (ChargingRequest("h9", 0, 4, 1.0, 8.0),))


def test_scenario_rejects_requests_out_of_household_row_order():
    reqs = (ChargingRequest("h1", 0, 4, 1.0, 8.0), ChargingRequest("h0", 4, 8, 1.0, 8.0))
    with pytest.raises(ValidationError, match="breaks household-row or arrival order"):
        Scenario(Timebase(start=MONDAY, n_steps=8), ("h0", "h1"), np.ones((2, 8)), reqs)
    back = Scenario(Timebase(start=MONDAY, n_steps=8), ("h1", "h0"), np.ones((2, 8)), reqs)
    assert back.request_rows.tolist() == [0, 1]


def test_scenario_rejects_overlapping_requests():
    reqs = (
        ChargingRequest("h000", 0, 4, 1.0, 8.0),
        ChargingRequest("h000", 3, 6, 1.0, 8.0),
    )
    with pytest.raises(ValidationError, match="overlap"):
        one_household(requests=reqs)


def test_scenario_allows_touching_requests():
    reqs = (
        ChargingRequest("h000", 0, 4, 1.0, 8.0),
        ChargingRequest("h000", 4, 8, 1.0, 8.0),
    )
    scenario = one_household(requests=reqs)
    assert len(scenario.requests) == 2


def test_scenario_rejects_out_of_range_request():
    with pytest.raises(ValidationError, match="outside"):
        one_household(requests=(ChargingRequest("h000", 4, 12, 1.0, 8.0),))


def test_scenario_rejects_infeasible_request():
    # 4 steps at 0.25 h and 2 kW can deliver at most 2 kWh.
    with pytest.raises(ValidationError, match="deliver"):
        one_household(requests=(ChargingRequest("h000", 0, 4, 2.5, 2.0),))


def test_scenario_accepts_boundary_feasible_request():
    scenario = one_household(requests=(ChargingRequest("h000", 0, 4, 2.0, 2.0),))
    assert scenario.requests[0].required_energy == 2.0


def test_scenario_rejects_duplicate_household_ids():
    tb = Timebase(start=MONDAY, n_steps=8)
    with pytest.raises(ValidationError, match="duplicate"):
        Scenario(tb, ("h0", "h0"), np.ones((2, 8)))


# --- Slicing ----------------------------------------------------------------


def test_slice_scenario_shifts_and_drops_crossers():
    reqs = (
        ChargingRequest("h000", 0, 4, 1.0, 8.0),   # crosses the slice start
        ChargingRequest("h000", 4, 8, 1.0, 8.0),   # inside
        ChargingRequest("h000", 8, 12, 1.0, 8.0),  # crosses the slice end
    )
    scenario = one_household(n_steps=12, requests=reqs)
    part = slice_scenario(scenario, 2, 10)
    assert part.timebase.n_steps == 8
    assert part.timebase.start == scenario.timebase.step_to_datetime(2)
    kept = part.requests
    assert [(r.t_arrive, r.t_depart) for r in kept] == [(2, 6)]


def test_slice_scenario_bounds_checked():
    scenario = one_household(n_steps=8)
    with pytest.raises(ValidationError):
        slice_scenario(scenario, 4, 3)
    with pytest.raises(ValidationError):
        slice_scenario(scenario, 0, 9)


# --- CSV round trips --------------------------------------------------------


def test_scenario_round_trip(tmp_path):
    reqs = (ChargingRequest("h000", 2, 7, 3.21, 7.5),)
    scenario = one_household(n_steps=8, baseline=0.7, requests=reqs)
    save_scenario(scenario, tmp_path)
    back = load_scenario(tmp_path)
    assert back.timebase == scenario.timebase
    assert np.array_equal(back.baseline[0], scenario.baseline[0])
    assert back.requests == scenario.requests


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=64),
                min_size=n,
                max_size=n,
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_loads_round_trip_is_exact(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("loads")
    tb = Timebase(start=MONDAY, n_steps=len(rows[0]))
    scenario = Scenario(tb, tuple(f"h{k}" for k in range(len(rows))), np.array(rows))
    save_scenario(scenario, tmp_path)
    back = load_scenario(tmp_path)
    assert list(back.household_ids) == [f"h{k}" for k in range(len(rows))]
    assert np.array_equal(back.baseline, np.array(rows))


def test_load_scenario_cites_bad_row(tmp_path):
    scenario = one_household(n_steps=4)
    save_scenario(scenario, tmp_path)
    lines = (tmp_path / "loads.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
    (tmp_path / "loads.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_scenario(tmp_path)


def test_load_scenario_rejects_unknown_household_request(tmp_path):
    scenario = one_household(n_steps=4)
    save_scenario(scenario, tmp_path)
    req_path = tmp_path / "requests.csv"
    header = req_path.read_text().splitlines()[0]
    tb = scenario.timebase
    row = ",".join(
        ["h999", tb.step_to_datetime(0).isoformat(), tb.step_to_datetime(2).isoformat(), "1.0", "4.0"]
    )
    req_path.write_text(header + "\n" + row + "\n")
    with pytest.raises(ValidationError, match="unknown household"):
        load_scenario(tmp_path)


def _write_requests(tmp_path, scenario, rows):
    """Replace the saved requests.csv with `rows` of (arrive step, depart
    step, required kWh, max kW) for household h000; data rows start at file
    row 2."""
    req_path = tmp_path / "requests.csv"
    header = req_path.read_text().splitlines()[0]
    tb = scenario.timebase
    lines = [
        ",".join(["h000", tb.step_to_datetime(a).isoformat(), tb.step_to_datetime(d).isoformat(),
                  repr(kwh), repr(kw)])
        for a, d, kwh, kw in rows
    ]
    req_path.write_text("\n".join([header, *lines]) + "\n")


def test_load_scenario_drops_zero_energy_requests(tmp_path):
    scenario = one_household(n_steps=4)
    save_scenario(scenario, tmp_path)
    _write_requests(tmp_path, scenario, [(0, 2, 0.0, 4.0)])
    assert load_scenario(tmp_path).requests == ()


@pytest.mark.parametrize(
    "rows,message",
    [
        # departs after the scenario's 8 steps
        (((0, 2, 1.0, 4.0), (4, 12, 1.0, 4.0)), "row 3: household h000: request .4,12. outside"),
        # a zero-energy row is checked before it is dropped
        (((0, 2, 1.0, 4.0), (4, 12, 0.0, 4.0)), "row 3: household h000: request .4,12. outside"),
        # 2 steps at 4 kW deliver at most 2 kWh
        (((0, 2, 2.5, 4.0), (4, 6, 1.0, 4.0)), "row 2: household h000: request at step 0 needs"),
        # overlap names the later row, whichever request arrives first
        (((0, 4, 1.0, 4.0), (2, 6, 1.0, 4.0)), "row 3: .* overlaps the one of row 2"),
        (((2, 6, 1.0, 4.0), (0, 4, 1.0, 4.0)), "row 3: .* overlaps the one of row 2"),
        (((0, 4, 1.0, 4.0), (5, 6, 1.0, 4.0), (3, 5, 0.0, 4.0)),
         "row 4: .* overlaps the one of row 2"),
    ],
)
def test_load_scenario_names_the_row_of_a_request_that_does_not_fit(tmp_path, rows, message):
    scenario = one_household(n_steps=8)
    save_scenario(scenario, tmp_path)
    _write_requests(tmp_path, scenario, rows)
    with pytest.raises(ValidationError, match=f"^requests.csv {message}") as exc:
        load_scenario(tmp_path)
    assert exc.value.exit_code == 3


def test_load_scenario_rejects_household_starting_late(tmp_path):
    scenario = one_household(n_steps=4)
    save_scenario(scenario, tmp_path)
    loads = tmp_path / "loads.csv"
    lines = loads.read_text().splitlines()
    late = [line.replace("h000", "h001") for line in lines[2:]]
    late.append(late[-1])  # same row count, first timestamp one step late
    loads.write_text("\n".join(lines + late) + "\n")
    with pytest.raises(ValidationError, match="h001 does not start at"):
        load_scenario(tmp_path)


def write_loads(path, rows, step_seconds=900):
    """loads.csv from (clock time on MONDAY, household, kW) rows."""
    lines = [f"timestamp,household_id,baseline_kw,step_seconds={step_seconds}"]
    lines += [f"2026-03-02T{clock},{hid},{kw}" for clock, hid, kw in rows]
    (path / "loads.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "rows,bad_row,message",
    [
        # back to the start after a jump: the repro of rows off the grid
        ([("00:00", "h1", 1.0), ("05:00", "h1", 2.0), ("00:00", "h1", 3.0)], 3, "step 20"),
        ([("00:00", "h1", 1.0), ("00:00", "h1", 2.0)], 3, "is step 0, expected step 1"),
        ([("00:00", "h1", 1.0), ("00:30", "h1", 2.0)], 3, "is step 2, expected step 1"),
        (
            [("00:00", "h1", 1.0), ("00:15", "h1", 2.0), ("00:30", "h1", 3.0),
             ("00:15", "h1", 4.0)],
            5,
            "is step 1, expected step 3",
        ),
        ([("00:00", "h1", 1.0), ("00:07", "h1", 2.0)], 3, "not aligned to the step grid"),
        ([("00:15", "h1", 1.0), ("00:00", "h1", 2.0)], 3, "is step -1, expected step 1"),
    ],
)
def test_load_scenario_rejects_rows_off_the_step_grid(tmp_path, rows, bad_row, message):
    write_loads(tmp_path, rows)
    with pytest.raises(ValidationError, match=f"loads.csv row {bad_row}: .*{message}"):
        load_scenario(tmp_path)


def test_load_scenario_rejects_a_second_household_out_of_step(tmp_path):
    rows = [("00:00", "h1", 1.0), ("00:15", "h1", 1.0), ("00:00", "h2", 1.0), ("00:00", "h2", 1.0)]
    write_loads(tmp_path, rows)
    with pytest.raises(ValidationError, match="loads.csv row 5: household h2 .*expected step 1"):
        load_scenario(tmp_path)


def test_load_scenario_rejects_a_mix_of_offset_and_naive_timestamps(tmp_path):
    write_loads(tmp_path, [("00:00", "h1", 1.0), ("00:15+00:00", "h1", 1.0)])
    with pytest.raises(ValidationError, match="loads.csv row 3: .*UTC offset"):
        load_scenario(tmp_path)


def test_load_scenario_reads_households_interleaved_in_step_order(tmp_path):
    rows = [
        (clock, hid, kw)
        for clock, kw in (("00:00", 1.0), ("01:00", 2.0), ("02:00", 3.0))
        for hid in ("h1", "h2")
    ]
    write_loads(tmp_path, rows, step_seconds=3600)
    back = load_scenario(tmp_path)
    assert back.timebase == Timebase(start=MONDAY, n_steps=3, step_seconds=3600)
    assert list(back.household_ids) == ["h1", "h2"]
    assert np.array_equal(back.baseline, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


def test_load_scenario_cites_the_header_for_a_bad_step(tmp_path):
    write_loads(tmp_path, [("00:00", "h1", 1.0)], step_seconds=7)
    with pytest.raises(ValidationError, match="loads.csv row 1: step_seconds must be"):
        load_scenario(tmp_path)


def test_load_scenario_rejects_a_household_with_missing_steps(tmp_path):
    rows = [("00:00", "h1", 1.0), ("00:15", "h1", 1.0), ("00:00", "h2", 1.0)]
    write_loads(tmp_path, rows)
    with pytest.raises(ValidationError, match="household h2 has 1 rows, expected 2"):
        load_scenario(tmp_path)
