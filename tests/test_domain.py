"""Core data model: timebase math, validation, CSV IO."""

import functools
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcharge import domain
from gridcharge.cli import main
from gridcharge.data import synth_scenario
from gridcharge.domain import (
    PHYSICAL_CAP,
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


@pytest.mark.parametrize("step_seconds", [1800, 3600])
def test_datetime_to_step_rejects_a_microsecond_off_the_grid(step_seconds):
    tb = Timebase(start=MONDAY, n_steps=10, step_seconds=step_seconds)
    with pytest.raises(ValidationError, match="not aligned to the step grid"):
        tb.datetime_to_step(MONDAY + timedelta(hours=1, microseconds=1))


def test_seconds_of_day_wraps():
    tb = Timebase(start=MONDAY.replace(hour=23), n_steps=10)
    seconds, _ = tb.calendar()
    assert seconds[0] == 23 * 3600
    assert seconds[4] == 0  # crossed midnight


def test_day_of_week():
    tb = Timebase(start=MONDAY, n_steps=96 * 7)
    _, weekday = tb.calendar()
    assert weekday[0] == 0
    assert weekday[96 * 5] == 5  # Saturday


@example(start=MONDAY.replace(hour=23), step_seconds=900, n_steps=10)  # wraps at step 4
@example(start=MONDAY, step_seconds=900, n_steps=96 * 7)  # Saturday from step 480
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    start=st.datetimes(datetime(2000, 1, 1), datetime(2099, 12, 31),
                       timezones=st.sampled_from([None, timezone.utc,
                                                  timezone(timedelta(hours=5, minutes=30)),
                                                  timezone(-timedelta(hours=8))])),
    step_seconds=st.sampled_from([300, 600, 900, 1200, 1800, 3600]),
    n_steps=st.integers(1, 800),
)
def test_calendar_matches_step_to_datetime(start, step_seconds, n_steps):
    tb = Timebase(start=start, n_steps=n_steps, step_seconds=step_seconds)
    seconds, weekday = tb.calendar()
    for t in range(n_steps):
        when = tb.step_to_datetime(t)
        midnight = when.replace(hour=0, minute=0, second=0, microsecond=0)
        assert seconds[t] == (when - midnight) / timedelta(seconds=1)
        assert weekday[t] == when.weekday()


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


def test_amounts_at_the_physical_cap_load_and_above_it_are_rejected(tmp_path):
    tb = Timebase(start=MONDAY, n_steps=8)
    base = np.ones((2, 8))
    base[1, 2] = PHYSICAL_CAP
    at_cap = ChargingRequest("h1", t_arrive=0, t_depart=4, required_energy=PHYSICAL_CAP,
                             max_kw=1e300)
    save_scenario(Scenario(tb, ("h0", "h1"), base, (at_cap,)), tmp_path)
    back = load_scenario(tmp_path)
    assert back.baseline[1, 2] == PHYSICAL_CAP
    assert back.requests == (at_cap,)
    over = 2 * PHYSICAL_CAP
    with pytest.raises(ValidationError, match="required_energy must be finite and in"):
        ChargingRequest("h1", t_arrive=0, t_depart=4, required_energy=over, max_kw=1e300)
    base[1, 2] = over
    with pytest.raises(
        ValidationError, match=r"^household h1: baseline has values above 1e\+20 kW$"
    ):
        Scenario(tb, ("h0", "h1"), base)


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


@pytest.mark.parametrize("step_seconds", [1800, 3600])
def test_load_scenario_rejects_a_load_row_a_microsecond_off_the_grid(tmp_path, step_seconds):
    rows = [("00:00:00", "h1", 1.0), ("01:00:00.000001", "h1", 2.0)]
    write_loads(tmp_path, rows, step_seconds=step_seconds)
    with pytest.raises(ValidationError,
                       match="loads.csv row 3: timestamp .* is not aligned to the step grid"):
        load_scenario(tmp_path)


@pytest.mark.parametrize("step_seconds", [1800, 3600])
def test_load_scenario_rejects_a_request_a_microsecond_off_the_grid(tmp_path, step_seconds):
    clocks = [MONDAY + timedelta(seconds=t * step_seconds) for t in range(4 * 3600 // step_seconds)]
    write_loads(tmp_path, [(f"{c:%H:%M}", "h1", 1.0) for c in clocks], step_seconds=step_seconds)
    (tmp_path / "requests.csv").write_text(
        ",".join(domain.REQUESTS_HEADER) + "\n"
        + "h1,2026-03-02T01:00:00.000001,2026-03-02T03:00:00,1.0,4.0\n")
    with pytest.raises(ValidationError,
                       match="requests.csv row 2: timestamp .* is not aligned to the step grid"):
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


# --- loads.csv: the block path against the row loop -------------------------


STEPS = 288  # per household in `generated_csv`


@functools.cache
def generated_csv(households):
    """(loads.csv, requests.csv) bytes of a small generated dataset."""
    scenario, _, _ = synth_scenario(n_households=households, split_days=(1, 1, 1), seed=6)
    with tempfile.TemporaryDirectory() as path:
        save_scenario(scenario, path)
        return tuple((Path(path) / name).read_bytes() for name in ("loads.csv", "requests.csv"))


def load_outcome(directory):
    """What load_scenario gives: the scenario's parts, or the error text."""
    try:
        s = load_scenario(directory)
    except ValidationError as exc:
        return str(exc)
    return s.timebase, s.household_ids, s.baseline.shape, s.baseline.tobytes(), s.requests


def _edit_row(loads, row, edit):
    """loads with line `row` (0 is the header; wrapped) replaced by edit(line)."""
    lines = loads.split(b"\r\n")
    row %= len(lines)
    lines[row] = edit(lines[row])
    return b"\r\n".join(lines)


def _set_value(loads, row, value):
    return _edit_row(loads, row, lambda line: line.rsplit(b",", 1)[0] + b"," + value)


def _step_major(loads):
    header, *lines = loads.split(b"\r\n")
    order = sorted(range(len(lines)), key=lambda k: (k % STEPS, k // STEPS))
    return b"\r\n".join([header, *(lines[k] for k in order)])


def _lf_after(loads, row):
    """loads with a bare LF ending line `row` (wrapped)."""
    lines = loads.split(b"\r\n")
    row %= len(lines) - 1
    lines[row:row + 2] = [lines[row] + b"\n" + lines[row + 1]]
    return b"\r\n".join(lines)


def _swap_rows(loads, row):
    lines = loads.split(b"\r\n")
    row %= len(lines) - 1
    lines[row], lines[row + 1] = lines[row + 1], lines[row]
    return b"\r\n".join(lines)


def _drop_row(loads, row):
    lines = loads.split(b"\r\n")
    del lines[row % len(lines)]
    return b"\r\n".join(lines)


def _split_household(loads, row):
    """Rows `row` to the end of its household renamed to a new household."""
    for r in range(row, (row - 1) // STEPS * STEPS + STEPS + 1):
        loads = _edit_row(loads, r, lambda line: line.replace(b",h00", b",h9"))
    return loads


# Each mutation maps (loads, requests, drawn row) to new (loads, requests).
MUTATIONS = {
    "lf": lambda lo, rq, i: (lo.replace(b"\r\n", b"\n"), rq),
    "cr": lambda lo, rq, i: (lo.replace(b"\r\n", b"\r"), rq),
    "mixed-line-ends": lambda lo, rq, i: (_lf_after(lo, i), rq),
    "stray-cr": lambda lo, rq, i: (_edit_row(lo, i, lambda line: line + b"\r"), rq),
    "bom": lambda lo, rq, i: (b"\xef\xbb\xbf" + lo, rq),
    "quoted-id": lambda lo, rq, i: (lo.replace(b",h001,", b',"h001",'), rq),
    "quoted-id-once": lambda lo, rq, i: (lo.replace(b",h001,", b',"h001",', 1), rq),
    "non-ascii-id": lambda lo, rq, i: (lo.replace(b"h001", "h\u00e9".encode()),
                                       rq.replace(b"h001", "h\u00e9".encode())),
    "latin-1-id": lambda lo, rq, i: (lo.replace(b"h001", b"h\xe9"), rq),
    "duplicate-id": lambda lo, rq, i: (lo.replace(b",h002,", b",h000,"), rq),
    "split-household": lambda lo, rq, i: (_split_household(lo, i), rq),
    "nul": lambda lo, rq, i: (_edit_row(lo, i, lambda line: line + b"\x00"), rq),
    "extra-column": lambda lo, rq, i: (_edit_row(lo, i, lambda line: line + b",1"), rq),
    "underscore": lambda lo, rq, i: (_set_value(lo, i, b"1_0"), rq),
    "space": lambda lo, rq, i: (_set_value(lo, i, b" 1.5"), rq),
    "nan": lambda lo, rq, i: (_set_value(lo, i, b"nan"), rq),
    "overflow": lambda lo, rq, i: (_set_value(lo, i, b"1e400"), rq),
    "negative-zero": lambda lo, rq, i: (_set_value(lo, i, b"-0.0"), rq),
    "step-major": lambda lo, rq, i: (_step_major(lo), rq),
    "swapped-rows": lambda lo, rq, i: (_swap_rows(lo, i), rq),
    "row-short": lambda lo, rq, i: (_drop_row(lo, i), rq),
    "blank-line": lambda lo, rq, i: (lo + b"\r\n", rq),
    "no-final-newline": lambda lo, rq, i: (lo[:-2], rq),
    "microsecond-off-grid": lambda lo, rq, i: (
        _edit_row(lo, i, lambda line: line.replace(b",", b".000001,", 1)), rq),
}


def _with_examples(test):
    """Always try each mutation alone on a row of the second of three
    households; the last row dropped from the last household; one
    household's file without its final line end; and, in one block, a bare
    LF after one line and an extra CR before the CRLF of the next."""
    cases = [(3, [name], [300, 300]) for name in MUTATIONS] + [
        (3, ["row-short"], [3 * STEPS, 1]),
        (1, ["no-final-newline"], [1, 1]),
        (3, ["mixed-line-ends", "stray-cr"], [300, 301]),
    ]
    for households, names, rows in cases:
        test = example(households=households, mutations=names, rows=rows,
                       block_bytes=domain.LOADS_BLOCK_BYTES)(test)
    return test


@_with_examples
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    households=st.sampled_from([1, 3]),
    mutations=st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2),
    rows=st.lists(st.integers(1, 3 * STEPS), min_size=2, max_size=2),
    block_bytes=st.sampled_from([512, 4096, domain.LOADS_BLOCK_BYTES]),
)
def test_block_path_gives_the_row_loops_outcome(tmp_path_factory, households, mutations, rows,
                                                block_bytes):
    loads, requests = generated_csv(households)
    for name, row in zip(mutations, rows):
        loads, requests = MUTATIONS[name](loads, requests, row)
    path = tmp_path_factory.mktemp("mutated")
    (path / "loads.csv").write_bytes(loads)
    (path / "requests.csv").write_bytes(requests)
    with mock.patch.object(domain, "LOADS_BLOCK_BYTES", block_bytes):
        ours = load_outcome(path)
    with mock.patch.object(domain, "_read_loads_blocks", return_value=None):
        assert ours == load_outcome(path)


def test_a_generated_dataset_takes_the_block_path(tmp_path):
    assert main(["gen", "--out", str(tmp_path), "--seed", "7", "--config", "households=3",
                 "--config", "train_days=2", "--config", "tune_days=1",
                 "--config", "test_days=1"]) == 0
    with mock.patch.object(domain, "_read_loads_rows", side_effect=AssertionError):
        scenario = load_scenario(tmp_path)
    assert scenario.baseline.shape == (3, 4 * 96)
