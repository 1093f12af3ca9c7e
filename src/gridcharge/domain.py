"""Core data model: timebase, charging requests and scenarios, and their CSV files.

A scenario is one (households x steps) baseline matrix plus one tuple of
charging requests, each naming its household; the requests come in the
matrix's row order, and by arrival within a household.

All energy is accounted in kWh and all power in kW; a charging "speed" is a
power in kW held for one simulation step. Converting between the two uses
``step_hours = step_seconds / 3600``.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import ValidationError

SECONDS_PER_DAY = 86400
T = TypeVar("T")

# A request whose remaining energy falls to or below this is finished; prevents
# an extra step of infinitesimal charging.
FINISH_TOL_KWH = 1e-9

# Post-run audit tolerance for delivered-vs-requested energy.
ENERGY_TOL_KWH = 1e-6

# Largest baseline load (kW) or requested energy (kWh) accepted: far above any
# household or car, and far below the ~1e150 where squared loads overflow.
PHYSICAL_CAP = 1e20


@dataclass(frozen=True)
class Timebase:
    """Uniform discrete time grid anchored at an absolute start timestamp."""

    start: datetime
    n_steps: int
    step_seconds: int = 900

    def __post_init__(self) -> None:
        # Hour-lagged features need whole steps per hour (and so per day).
        if self.step_seconds <= 0 or 3600 % self.step_seconds != 0:
            raise ValidationError(
                f"step_seconds must be a positive divisor of 3600, got {self.step_seconds}"
            )
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def step_hours(self) -> float:
        return self.step_seconds / 3600.0

    @property
    def steps_per_day(self) -> int:
        return SECONDS_PER_DAY // self.step_seconds

    @property
    def steps_per_hour(self) -> int:
        return 3600 // self.step_seconds

    def step_to_datetime(self, t: int) -> datetime:
        return self.start + timedelta(seconds=t * self.step_seconds)

    def iso_timestamps(self, count: int | None = None) -> list[str]:
        """``step_to_datetime(t).isoformat()`` for t = 0 .. count - 1 (default:
        every step): the timestamp column of the CSV files, built once."""
        count = self.n_steps if count is None else count
        return [self.step_to_datetime(t).isoformat() for t in range(count)]

    def datetime_to_step(self, when: datetime) -> int:
        try:
            delta = (when - self.start).total_seconds()
        except TypeError:  # one of the two carries a UTC offset, the other none
            raise ValidationError(
                f"timestamp {when.isoformat()} and start {self.start.isoformat()} "
                "differ in whether they carry a UTC offset"
            ) from None
        steps = delta / self.step_seconds
        if abs(steps - round(steps)) > 1e-9:
            raise ValidationError(f"timestamp {when.isoformat()} is not aligned to the step grid")
        return int(round(steps))

    def seconds_of_day(self, t: int) -> int:
        start_sec = self.start.hour * 3600 + self.start.minute * 60 + self.start.second
        return (start_sec + t * self.step_seconds) % SECONDS_PER_DAY

    def day_of_week(self, t: int) -> int:
        """Day of week at step t, Monday=0 .. Sunday=6."""
        return self.step_to_datetime(t).weekday()


@dataclass(frozen=True)
class ChargingRequest:
    """One vehicle-availability interval with an energy demand and a rate limit.

    The car may charge at steps t with ``t_arrive <= t < t_depart``, must
    receive ``required_energy`` kWh by departure, and never charges above
    ``max_kw``.
    """

    household_id: str
    t_arrive: int
    t_depart: int
    required_energy: float
    max_kw: float

    def __post_init__(self) -> None:
        if self.t_arrive >= self.t_depart:
            raise ValidationError(
                f"request for {self.household_id}: t_arrive={self.t_arrive} must be < "
                f"t_depart={self.t_depart}"
            )
        if not 0 <= self.required_energy <= PHYSICAL_CAP:
            raise ValidationError(
                f"request for {self.household_id}: required_energy must be finite and in "
                f"[0, {PHYSICAL_CAP:g}] kWh, got {self.required_energy}"
            )
        if not 0 < self.max_kw < math.inf:
            raise ValidationError(
                f"request for {self.household_id}: max_kw must be finite and > 0, got {self.max_kw}"
            )

    @property
    def total_steps(self) -> int:
        return self.t_depart - self.t_arrive

    def max_deliverable_kwh(self, step_hours: float) -> float:
        return self.max_kw * self.total_steps * step_hours

    def check_fits(self, timebase: Timebase) -> None:
        """Raise ValidationError unless the request lies within the timebase
        and its window can deliver its energy."""
        if self.t_arrive < 0 or self.t_depart > timebase.n_steps:
            raise ValidationError(
                f"household {self.household_id}: request [{self.t_arrive},{self.t_depart}) "
                f"outside scenario of {timebase.n_steps} steps"
            )
        deliverable = self.max_deliverable_kwh(timebase.step_hours)
        if self.required_energy > deliverable + FINISH_TOL_KWH:
            raise ValidationError(
                f"household {self.household_id}: request at step {self.t_arrive} needs "
                f"{self.required_energy:.6f} kWh but can deliver at most {deliverable:.6f} kWh"
            )


@dataclass(frozen=True)
class Scenario:
    """Baseline loads and charging requests of a neighbourhood on one timebase.

    `baseline` is a (households, n_steps) matrix in kW whose row h is the
    household `household_ids[h]`. `requests` holds every request in
    household-row order, and by arrival within a household; a household's
    requests may not overlap. `request_rows`, derived, is each request's row.
    """

    timebase: Timebase
    household_ids: tuple[str, ...]
    baseline: np.ndarray
    requests: tuple[ChargingRequest, ...] = ()
    request_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tb, ids = self.timebase, self.household_ids
        row_of: dict[str, int] = {}
        for hid in ids:
            if hid in row_of:
                raise ValidationError(f"duplicate household_id {hid!r}")
            row_of[hid] = len(row_of)
        base = np.asarray(self.baseline, dtype=float)
        if base.shape != (len(ids), tb.n_steps):
            raise ValidationError(
                f"baseline matrix has shape {base.shape}, expected {len(ids)} households by "
                f"series length {tb.n_steps}"
            )
        for what, bad in (("non-finite values", ~np.isfinite(base)), ("negative values", base < 0),
                          (f"values above {PHYSICAL_CAP:g} kW", base > PHYSICAL_CAP)):
            hit = np.flatnonzero(bad.any(axis=1))
            if hit.size:
                raise ValidationError(f"household {ids[hit[0]]}: baseline has {what}")
        rows = []
        prev = (0, -1)  # row and departure of the request before
        for req in self.requests:
            row = row_of.get(req.household_id)
            if row is None:
                raise ValidationError(f"request for unknown household {req.household_id!r}")
            if (row, req.t_arrive) < prev:
                raise ValidationError(
                    f"household {req.household_id}: request at step {req.t_arrive} overlaps "
                    "the one before it, or breaks household-row or arrival order"
                )
            req.check_fits(tb)
            rows.append(row)
            prev = (row, req.t_depart)
        object.__setattr__(self, "baseline", base)
        object.__setattr__(self, "request_rows", np.array(rows, dtype=np.intp))

    @property
    def n_households(self) -> int:
        return len(self.household_ids)


def slice_scenario(scenario: Scenario, start_step: int, end_step: int) -> Scenario:
    """Extract the sub-scenario covering steps [start_step, end_step).

    Its baseline is a column view of the scenario's. Requests that cross
    either boundary are dropped: their mid-interval state is not
    representable in the slice.
    """
    tb = scenario.timebase
    if not (0 <= start_step < end_step <= tb.n_steps):
        raise ValidationError(
            f"slice [{start_step},{end_step}) outside scenario of {tb.n_steps} steps"
        )
    new_tb = Timebase(
        start=tb.step_to_datetime(start_step),
        n_steps=end_step - start_step,
        step_seconds=tb.step_seconds,
    )
    requests = tuple(
        replace(r, t_arrive=r.t_arrive - start_step, t_depart=r.t_depart - start_step)
        for r in scenario.requests
        if r.t_arrive >= start_step and r.t_depart <= end_step
    )
    return Scenario(new_tb, scenario.household_ids, scenario.baseline[:, start_step:end_step],
                    requests)


@dataclass(frozen=True)
class SimResult:
    """Total grid load plus the per-household charging that produced it. A
    batch run puts a leading candidate axis on both arrays."""

    timebase: Timebase
    grid_load: np.ndarray               # ([candidates,] n_steps) kW
    per_household_charging: np.ndarray  # ([candidates,] households, n_steps) kW
    warmup_steps: int


# ---------------------------------------------------------------------------
# Scenario serialization: loads.csv + requests.csv
# ---------------------------------------------------------------------------

LOADS_HEADER = ["timestamp", "household_id", "baseline_kw"]
REQUESTS_HEADER = ["household_id", "t_arrive_iso", "t_depart_iso", "required_kwh", "max_kw"]


def _csv_field(value: str) -> str:
    """value as csv.writer writes it between two other fields: quoted, with
    its quotes doubled, only when it holds a delimiter, a quote or a line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value, ""])
    return buf.getvalue()[1:-3]


def save_scenario(scenario: Scenario, directory: str | Path) -> None:
    """Write loads.csv and requests.csv into directory (created if missing).

    Both files are CSV with CRLF line ends, quoted as ``csv.writer`` quotes.
    loads.csv starts with the header ``timestamp,household_id,baseline_kw,
    step_seconds=<s>`` and then holds one row per household per step,
    household-major (every step of the first household, then the next) and
    in step order; requests.csv holds one row per request. Timestamps are
    ISO 8601 and floats are written with repr, so a round-trip reproduces
    them exactly. loads.csv is written one household block at a time: each
    distinct timestamp and household id is formatted once.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tb = scenario.timebase
    stamps = tb.iso_timestamps(tb.n_steps + 1)  # a request may depart at n_steps
    with open(directory / "loads.csv", "w", newline="") as f:
        csv.writer(f).writerow(LOADS_HEADER + [f"step_seconds={tb.step_seconds}"])
        for hid, values in zip(scenario.household_ids, scenario.baseline.tolist()):
            mid = f",{_csv_field(hid)},"
            f.write("".join([f"{s}{mid}{v!r}\r\n" for s, v in zip(stamps, values)]))
    with open(directory / "requests.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REQUESTS_HEADER)
        for r in scenario.requests:
            w.writerow(
                [
                    r.household_id,
                    stamps[r.t_arrive],
                    stamps[r.t_depart],
                    repr(float(r.required_energy)),
                    repr(float(r.max_kw)),
                ]
            )


def _parse(parse: Callable[[str], T], value: str, what: str, row: int, file: str) -> T:
    """`parse(value)`, or a ValidationError naming the file, row and field."""
    try:
        return parse(value)
    except ValueError:
        raise ValidationError(f"{file} row {row}: bad {what} {value!r}") from None


@contextmanager
def _csv_reader(path: Path) -> Iterator[Iterator[list[str]]]:
    """A csv.reader over the file `path`. A path that is not a regular file,
    or bytes that do not decode as text, raise a ValidationError naming it."""
    if not path.is_file():
        raise ValidationError(f"{path} is not a regular file")
    with open(path, newline="") as f:
        try:
            yield csv.reader(f)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid text ({exc})") from None


def load_scenario(directory: str | Path) -> Scenario:
    """Read loads.csv and requests.csv back into a validated Scenario.

    loads.csv follows the contract ``save_scenario`` writes: its first data
    row sets the start, ``step_seconds`` in its header the step (default
    900), and every household needs exactly one row per step, starting at
    the start and in step order. The households may come one after the
    other or interleaved step by step. A row whose timestamp is off that
    grid, out of order, repeated or skipping a step is an error; errors cite
    the offending file and row number. Rows stream through: each distinct
    timestamp is parsed once. A file that is not a regular file, or whose
    bytes do not decode as text, is an error naming the file.

    Every requests.csv row, a zero-energy one included, must lie within the
    scenario, ask no more energy than its window can deliver, and not
    overlap another row of its household (an overlap names the later of the
    two rows). Zero-energy requests are then dropped.
    """
    directory = Path(directory)
    loads_path = directory / "loads.csv"
    requests_path = directory / "requests.csv"
    if not loads_path.exists():
        raise ValidationError(f"{directory} is not a dataset directory: {loads_path} missing")

    series: dict[str, list[float]] = {}  # household id -> baseline, in file order
    stamp_steps: dict[str, int] = {}     # timestamp text -> step on the grid
    grid: Timebase | None = None         # start and step; n_steps is known at the end
    step_seconds = 900
    with _csv_reader(loads_path) as reader:
        header = next(reader, None)
        if not header or header[: len(LOADS_HEADER)] != LOADS_HEADER:
            raise ValidationError(f"loads.csv row 1: expected header {LOADS_HEADER}")
        for extra in header[len(LOADS_HEADER):]:
            key, _, val = extra.partition("=")
            if key == "step_seconds":
                try:
                    step_seconds = int(val)
                except ValueError:
                    raise ValidationError(f"loads.csv row 1: bad step_seconds {val!r}") from None
        for i, row in enumerate(reader, start=2):
            try:
                stamp, hid, text = row
                kw = float(text)
            except ValueError:
                if len(row) != len(LOADS_HEADER):
                    raise ValidationError(
                        f"loads.csv row {i}: expected {len(LOADS_HEADER)} columns"
                    ) from None
                raise ValidationError(f"loads.csv row {i}: bad baseline_kw {text!r}") from None
            step = stamp_steps.get(stamp)
            if step is None:
                when = _parse(datetime.fromisoformat, stamp, "timestamp", i, "loads.csv")
                if grid is None:
                    try:
                        grid = Timebase(start=when, n_steps=1, step_seconds=step_seconds)
                    except ValidationError as exc:
                        raise ValidationError(f"loads.csv row 1: {exc}") from None
                try:
                    step = stamp_steps[stamp] = grid.datetime_to_step(when)
                except ValidationError as exc:
                    raise ValidationError(f"loads.csv row {i}: {exc}") from None
            values = series.get(hid)
            if values is None:
                if step != 0:
                    raise ValidationError(
                        f"loads.csv row {i}: household {hid} does not start at {grid.start}"
                    )
                values = series[hid] = []
            if step != len(values):
                raise ValidationError(
                    f"loads.csv row {i}: household {hid} timestamp {stamp} is step {step}, "
                    f"expected step {len(values)}"
                )
            if not 0 <= kw <= PHYSICAL_CAP:
                raise ValidationError(
                    f"loads.csv row {i}: baseline_kw must be finite and in [0, {PHYSICAL_CAP:g}], "
                    f"got {text!r}"
                )
            values.append(kw)
    if grid is None:
        raise ValidationError("loads.csv: no data rows")

    n_steps = len(next(iter(series.values())))
    tb = Timebase(start=grid.start, n_steps=n_steps, step_seconds=step_seconds)
    for hid, values in series.items():
        if len(values) != n_steps:
            raise ValidationError(
                f"loads.csv: household {hid} has {len(values)} rows, expected {n_steps}"
            )

    # household id -> (request, file row) pairs, zero-energy rows included
    requests: dict[str, list[tuple[ChargingRequest, int]]] = {hid: [] for hid in series}
    if requests_path.exists():
        with _csv_reader(requests_path) as reader:
            header = next(reader, None)
            if header != REQUESTS_HEADER:
                raise ValidationError(f"requests.csv row 1: expected header {REQUESTS_HEADER}")
            for i, row in enumerate(reader, start=2):
                if len(row) != len(REQUESTS_HEADER):
                    raise ValidationError(
                        f"requests.csv row {i}: expected {len(REQUESTS_HEADER)} columns"
                    )
                hid = row[0]
                if hid not in requests:
                    raise ValidationError(f"requests.csv row {i}: unknown household {hid!r}")
                arrive = _parse(datetime.fromisoformat, row[1], "t_arrive_iso", i, "requests.csv")
                depart = _parse(datetime.fromisoformat, row[2], "t_depart_iso", i, "requests.csv")
                kwh = _parse(float, row[3], "required_kwh", i, "requests.csv")
                max_kw = _parse(float, row[4], "max_kw", i, "requests.csv")
                try:
                    req = ChargingRequest(
                        household_id=hid,
                        t_arrive=tb.datetime_to_step(arrive),
                        t_depart=tb.datetime_to_step(depart),
                        required_energy=kwh,
                        max_kw=max_kw,
                    )
                    req.check_fits(tb)
                except ValidationError as exc:
                    raise ValidationError(f"requests.csv row {i}: {exc}") from None
                requests[hid].append((req, i))

    kept: list[ChargingRequest] = []
    for hid, pairs in requests.items():
        pairs.sort(key=lambda pair: pair[0].t_arrive)
        for (prev, prev_row), (req, row) in zip(pairs, pairs[1:]):
            if req.t_arrive < prev.t_depart:
                first, later = sorted((prev_row, row))
                raise ValidationError(
                    f"requests.csv row {later}: household {hid}: request overlaps the one "
                    f"of row {first}"
                )
        # zero-energy requests are dropped before simulation
        kept.extend(req for req, _ in pairs if req.required_energy != 0)
    return Scenario(tb, tuple(series), np.array(list(series.values()), dtype=float), tuple(kept))
