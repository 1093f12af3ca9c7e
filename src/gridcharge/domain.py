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
import re
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

    def iso_timestamps(self, steps: range | None = None) -> list[str]:
        """``step_to_datetime(t).isoformat()`` for each t in `steps` (default:
        every step): the timestamp column of the CSV files."""
        steps = range(self.n_steps) if steps is None else steps
        return [self.step_to_datetime(t).isoformat() for t in steps]

    def datetime_to_step(self, when: datetime) -> int:
        try:
            steps, off = divmod(when - self.start, timedelta(seconds=self.step_seconds))
        except TypeError:  # one of the two carries a UTC offset, the other none
            raise ValidationError(
                f"timestamp {when.isoformat()} and start {self.start.isoformat()} "
                "differ in whether they carry a UTC offset"
            ) from None
        if off:
            raise ValidationError(f"timestamp {when.isoformat()} is not aligned to the step grid")
        return steps

    def calendar(self) -> tuple[np.ndarray, np.ndarray]:
        """The wall-clock time of day in seconds and the weekday (Monday=0 ..
        Sunday=6) of every step, as `step_to_datetime` gives them. Worked out
        in whole microseconds, so exact at any start."""
        day_us = SECONDS_PER_DAY * 1_000_000
        midnight = self.start.replace(hour=0, minute=0, second=0, microsecond=0)
        elapsed = (self.start - midnight) // timedelta(microseconds=1) + np.arange(
            self.n_steps, dtype=np.int64) * (self.step_seconds * 1_000_000)
        days, of_day = np.divmod(elapsed, day_us)
        return of_day / 1e6, (self.start.weekday() + days) % 7


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
    stamps = tb.iso_timestamps(range(tb.n_steps + 1))  # a request may depart at n_steps
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
    bytes that do not decode as text, or a line csv cannot read (such as a
    field over its size limit) raise a ValidationError naming the file."""
    if not path.is_file():
        raise ValidationError(f"{path} is not a regular file")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            yield reader
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid text ({exc})") from None
        except csv.Error as exc:
            raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None


def _read_loads_rows(path: Path) -> tuple[Timebase, tuple[str, ...], np.ndarray]:
    """The timebase, household ids and baseline matrix of loads.csv, read
    row by row; see `load_scenario` for the rules and the errors."""
    series: dict[str, list[float]] = {}  # household id -> baseline, in file order
    stamp_steps: dict[str, int] = {}     # timestamp text -> step on the grid
    grid: Timebase | None = None         # start and step; n_steps is known at the end
    step_seconds = 900
    with _csv_reader(path) as reader:
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
    return tb, tuple(series), np.array(list(series.values()), dtype=float)


# loads.csv goes through numpy this many bytes at a time. A line must fit in
# one block, so the block path never meets a field over csv's size limit of
# 131072 characters: the row loop reads, and rejects, any file that has one.
LOADS_BLOCK_BYTES = 1 << 16
_LOADS_HEADER_LINE = re.compile(
    rb"timestamp,household_id,baseline_kw,step_seconds=([0-9]{1,9})\r\n")


def _byte_fields(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The fields buf[start[i]:stop[i]] as one bytes array, NUL-padded; buf
    must hold the widest field's width of bytes after every start."""
    width = stop - start
    size = max(int(width.max()), 1)
    out = np.lib.stride_tricks.sliding_window_view(buf, size)[start]
    if width.min() < size:
        out *= np.arange(size) < width[:, None]
    return out.view(f"S{size}").ravel()


def _read_loads_blocks(path: Path) -> tuple[Timebase, tuple[str, ...], np.ndarray] | None:
    """What `_read_loads_rows` returns for loads.csv, parsed with numpy one
    block of whole lines at a time; or None, leaving the file to the row
    loop, unless it is exactly what `save_scenario` writes: ASCII with no '"'
    or NUL, CRLF after every line, two commas per line, household-major rows
    whose timestamps are the first household's, and every value in [0,
    PHYSICAL_CAP]. It never raises. Each block's values go through one
    bytes-to-float64 cast, which accepts and rounds as ``float()`` does."""
    if not path.is_file():
        return None
    # Lines are read into the first half; the second lets `_byte_fields`
    # gather any field of them at the widest field's width.
    buf = bytearray(2 * LOADS_BLOCK_BYTES)
    block = np.frombuffer(buf, dtype=np.uint8)
    tb: Timebase | None = None
    stamps = np.array([], dtype="S1")  # the isoformat text of steps 0, 1, ...
    ids: list[bytes] = []              # household ids in file order
    chunks: list[np.ndarray] = []      # baseline values in file order
    n_steps = 0  # rows per household; 0 until the second household starts
    rows = 0     # data rows before this block
    kept = 0     # bytes of a partial line moved to the front of the buffer
    try:
        with open(path, "rb") as f:
            header = _LOADS_HEADER_LINE.fullmatch(f.readline(LOADS_BLOCK_BYTES))
            if header is None:
                return None
            step_seconds = int(header[1])
            # readinto returns 0 at the end of the file, and when a line
            # fills the whole buffer; either way `kept` then declines.
            while got := f.readinto(memoryview(buf)[kept:LOADS_BLOCK_BYTES]):
                filled = kept + got
                ends = np.flatnonzero(block[:filled] == ord("\n"))
                if not ends.size:
                    kept = filled
                    continue
                text = block[: ends[-1] + 1]
                starts = np.concatenate(([0], ends[:-1] + 1))
                crs = ends - 1
                commas = np.flatnonzero(text == ord(","))
                first, second = commas[::2], commas[1::2]
                # Past this test every field lies within its line, and each
                # gather below within 4 block sizes.
                if (text.max() >= 128 or (text == 0).any() or (text == ord('"')).any()
                        or np.count_nonzero(text == ord("\r")) != ends.size
                        or commas.size != 2 * ends.size
                        or (text[crs] != ord("\r")).any()
                        or (first < starts).any() or (second >= crs).any()
                        or (crs - starts).max() * ends.size > 4 * text.size):
                    return None
                stamp = _byte_fields(block, starts, first)
                hid = _byte_fields(block, first + 1, second)
                if tb is None:
                    try:
                        start = datetime.fromisoformat(stamp[0].decode())
                        tb = Timebase(start=start, n_steps=1, step_seconds=step_seconds)
                    except (ValueError, ValidationError):
                        return None
                row = np.arange(rows, rows + ends.size)
                new = np.empty(ends.size, dtype=bool)  # the row starts a household
                new[0] = not ids or hid[0] != ids[-1]
                new[1:] = hid[1:] != hid[:-1]
                if not n_steps:
                    later = row[new & (row > 0)]
                    n_steps = int(later[0]) if later.size else 0
                step = row % n_steps if n_steps else row
                if ((step == 0) != new).any():
                    return None
                ids.extend(hid[new].tolist())
                if step.max() >= stamps.size:
                    try:
                        more = tb.iso_timestamps(range(stamps.size, int(step.max()) + 1))
                    except OverflowError:
                        return None
                    stamps = np.concatenate([stamps, np.array(more, dtype="S")])
                if (stamp != stamps[step]).any():
                    return None
                try:
                    kw = _byte_fields(block, second + 1, crs).astype(np.float64)
                except ValueError:
                    return None
                if not ((kw >= 0) & (kw <= PHYSICAL_CAP)).all():
                    return None
                chunks.append(kw)
                rows += ends.size
                kept = filled - text.size
                block[:kept] = block[text.size:filled]
    except OSError:
        return None
    n_steps = n_steps or rows
    if kept or not rows or rows % n_steps or len(set(ids)) != len(ids):
        return None
    return (Timebase(start=tb.start, n_steps=n_steps, step_seconds=step_seconds),
            tuple(h.decode() for h in ids), np.concatenate(chunks).reshape(-1, n_steps))


def load_scenario(directory: str | Path) -> Scenario:
    """Read loads.csv and requests.csv back into a validated Scenario.

    loads.csv follows the contract ``save_scenario`` writes: its first data
    row sets the start, ``step_seconds`` in its header the step (default
    900), and every household needs exactly one row per step, starting at
    the start and in step order. The households may come one after the
    other or interleaved step by step. A row whose timestamp is off that
    grid, out of order, repeated or skipping a step is an error; errors cite
    the offending file and row number. A file that is not a regular file,
    whose bytes do not decode as text, or that csv cannot read (such as a
    field over its size limit) is an error naming the file.

    A loads.csv exactly as `save_scenario` writes it (ASCII, CRLF line ends,
    no quoted ids, households one after the other) is parsed with numpy in
    blocks of whole lines; any other file goes through a row loop, in which
    each distinct timestamp is parsed once. The row loop words every error:
    the values, errors and exit codes are its own whichever path reads the
    file.

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

    loads = _read_loads_blocks(loads_path)
    tb, ids, baseline = loads if loads is not None else _read_loads_rows(loads_path)

    # household id -> (request, file row) pairs, zero-energy rows included
    requests: dict[str, list[tuple[ChargingRequest, int]]] = {hid: [] for hid in ids}
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
    return Scenario(tb, ids, baseline, tuple(kept))
