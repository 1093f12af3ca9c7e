"""Core data model: timebase, charging requests and scenarios, and their CSV files.

All energy is accounted in kWh and all power in kW; a charging "speed" is a
power in kW held for one simulation step. Converting between the two uses
``step_hours = step_seconds / 3600``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ValidationError

SECONDS_PER_DAY = 86400

# A request whose remaining energy falls to or below this is finished; prevents
# an extra step of infinitesimal charging.
FINISH_TOL_KWH = 1e-9

# Post-run audit tolerance for delivered-vs-requested energy.
ENERGY_TOL_KWH = 1e-6


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
        if self.required_energy < 0:
            raise ValidationError(
                f"request for {self.household_id}: required_energy must be >= 0"
            )
        if self.max_kw <= 0:
            raise ValidationError(f"request for {self.household_id}: max_kw must be > 0")

    @property
    def total_steps(self) -> int:
        return self.t_depart - self.t_arrive

    def max_deliverable_kwh(self, step_hours: float) -> float:
        return self.max_kw * self.total_steps * step_hours


@dataclass(frozen=True)
class Household:
    household_id: str
    baseline_load: np.ndarray
    requests: tuple[ChargingRequest, ...] = ()


@dataclass(frozen=True)
class Scenario:
    """Per-household baseline load series plus request sets on one timebase."""

    timebase: Timebase
    households: tuple[Household, ...]

    def __post_init__(self) -> None:
        tb = self.timebase
        seen: set[str] = set()
        for h in self.households:
            if h.household_id in seen:
                raise ValidationError(f"duplicate household_id {h.household_id!r}")
            seen.add(h.household_id)
            load = np.asarray(h.baseline_load, dtype=float)
            if load.shape != (tb.n_steps,):
                raise ValidationError(
                    f"household {h.household_id}: baseline series has length {load.shape}, "
                    f"expected ({tb.n_steps},)"
                )
            if not np.all(np.isfinite(load)):
                raise ValidationError(f"household {h.household_id}: baseline has non-finite values")
            if np.any(load < 0):
                raise ValidationError(f"household {h.household_id}: baseline has negative values")
            prev_depart = -1
            for req in h.requests:
                if req.household_id != h.household_id:
                    raise ValidationError(
                        f"request owner {req.household_id!r} filed under {h.household_id!r}"
                    )
                if req.t_arrive < prev_depart:
                    raise ValidationError(
                        f"household {h.household_id}: requests overlap or are unsorted "
                        f"near step {req.t_arrive}"
                    )
                if req.t_arrive < 0 or req.t_depart > tb.n_steps:
                    raise ValidationError(
                        f"household {h.household_id}: request [{req.t_arrive},{req.t_depart}) "
                        f"outside scenario of {tb.n_steps} steps"
                    )
                if req.required_energy > req.max_deliverable_kwh(tb.step_hours) + FINISH_TOL_KWH:
                    raise ValidationError(
                        f"household {h.household_id}: request at step {req.t_arrive} needs "
                        f"{req.required_energy:.6f} kWh but can deliver at most "
                        f"{req.max_deliverable_kwh(tb.step_hours):.6f} kWh"
                    )
                prev_depart = req.t_depart

    @property
    def n_households(self) -> int:
        return len(self.households)

    def baseline_matrix(self) -> np.ndarray:
        """Stacked (households, n_steps) baseline loads in kW."""
        return np.stack([np.asarray(h.baseline_load, dtype=float) for h in self.households])

    def all_requests(self) -> list[ChargingRequest]:
        return [req for h in self.households for req in h.requests]


def slice_scenario(scenario: Scenario, start_step: int, end_step: int) -> Scenario:
    """Extract the sub-scenario covering steps [start_step, end_step).

    Requests that cross either boundary are dropped: their mid-interval state
    is not representable in the slice.
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
    households = []
    for h in scenario.households:
        reqs = tuple(
            ChargingRequest(
                household_id=r.household_id,
                t_arrive=r.t_arrive - start_step,
                t_depart=r.t_depart - start_step,
                required_energy=r.required_energy,
                max_kw=r.max_kw,
            )
            for r in h.requests
            if r.t_arrive >= start_step and r.t_depart <= end_step
        )
        households.append(
            Household(
                household_id=h.household_id,
                baseline_load=np.asarray(h.baseline_load, dtype=float)[start_step:end_step],
                requests=reqs,
            )
        )
    return Scenario(timebase=new_tb, households=tuple(households))


class SimulationIncomplete(ValidationError):
    """A request reached its departure with energy still owed."""


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
        for h in scenario.households:
            mid = f",{_csv_field(h.household_id)},"
            values = np.asarray(h.baseline_load, dtype=float).tolist()
            f.write("".join([f"{s}{mid}{v!r}\r\n" for s, v in zip(stamps, values)]))
    with open(directory / "requests.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(REQUESTS_HEADER)
        for h in scenario.households:
            for r in h.requests:
                w.writerow(
                    [
                        h.household_id,
                        stamps[r.t_arrive],
                        stamps[r.t_depart],
                        repr(float(r.required_energy)),
                        repr(float(r.max_kw)),
                    ]
                )


def _parse_float(value: str, what: str, row: int, file: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"{file} row {row}: bad {what} {value!r}") from None


def _parse_iso(value: str, what: str, row: int, file: str) -> datetime:
    try:
        return datetime.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"{file} row {row}: bad {what} {value!r}") from None


def load_scenario(directory: str | Path) -> Scenario:
    """Read loads.csv and requests.csv back into a validated Scenario.

    loads.csv follows the contract ``save_scenario`` writes: its first data
    row sets the start, ``step_seconds`` in its header the step (default
    900), and every household needs exactly one row per step, starting at
    the start and in step order. Households may come one after the other or
    interleaved step by step. A row whose timestamp is off that grid, out of
    order, repeated or skipping a step is an error; errors cite the
    offending file and row number. Rows stream through: each distinct
    timestamp is parsed once.
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
    with open(loads_path, newline="") as f:
        reader = csv.reader(f)
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
                when = _parse_iso(stamp, "timestamp", i, "loads.csv")
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
            if kw < 0:
                raise ValidationError(f"loads.csv row {i}: negative baseline_kw {kw}")
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

    requests: dict[str, list[ChargingRequest]] = {hid: [] for hid in series}
    if requests_path.exists():
        with open(requests_path, newline="") as f:
            reader = csv.reader(f)
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
                arrive = _parse_iso(row[1], "t_arrive_iso", i, "requests.csv")
                depart = _parse_iso(row[2], "t_depart_iso", i, "requests.csv")
                kwh = _parse_float(row[3], "required_kwh", i, "requests.csv")
                max_kw = _parse_float(row[4], "max_kw", i, "requests.csv")
                if kwh <= 0:
                    continue  # zero-energy requests are dropped before simulation
                try:
                    req = ChargingRequest(
                        household_id=hid,
                        t_arrive=tb.datetime_to_step(arrive),
                        t_depart=tb.datetime_to_step(depart),
                        required_energy=kwh,
                        max_kw=max_kw,
                    )
                except ValidationError as exc:
                    raise ValidationError(f"requests.csv row {i}: {exc}") from None
                requests[hid].append(req)

    households = tuple(
        Household(
            household_id=hid,
            baseline_load=np.asarray(series[hid], dtype=float),
            requests=tuple(sorted(requests[hid], key=lambda r: r.t_arrive)),
        )
        for hid in series
    )
    return Scenario(timebase=tb, households=households)
