"""Synthetic scenario generation: household load traces, travel habits,
charging requests, and train/tune/test splits.

The generator produces a neighborhood of households with a double-peaked
daily consumption pattern, weekday commute travel, and one overnight charging
request per travel day. Total charging energy is sized as a configurable
share of overall consumption.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .domain import (
    SECONDS_PER_DAY,
    ChargingRequest,
    Scenario,
    Timebase,
    load_scenario,
    save_scenario,
    slice_scenario,
)
from .errors import ConfigError, ValidationError, json_integer

log = logging.getLogger(__name__)

DEFAULT_HOUSEHOLDS = 74
DEFAULT_SPLIT_DAYS = (15, 8, 21)  # train, tune, test
DEFAULT_CHARGING_SHARE = 0.18
MIN_REQUEST_KWH = 0.05
TRAVELS_PER_DAY = 60  # trips per day of week in the synthetic travel pool
SKIP_PROBABILITY = 0.12  # chance that a household skips charging on a travel day
MAX_KW_RANGE = (3.0, 8.0)  # household charger rate limits are uniform in this range

SPLIT_NAMES = ("train", "tune", "test")


@dataclass(frozen=True)
class TravelRecord:
    """One observed car trip: away from `depart_s` to `return_s` (seconds of
    day) on a given day of week (Monday=0)."""

    day_of_week: int
    depart_s: int
    return_s: int


def write_travels_csv(records: list[TravelRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["day_of_week", "depart_s", "return_s"])
        for r in records:
            w.writerow([r.day_of_week, r.depart_s, r.return_s])


def build_travel_pool(rng: np.random.Generator) -> list[TravelRecord]:
    """Synthetic trip pool of TRAVELS_PER_DAY trips per day of week:
    commute-shaped on weekdays, later and looser on weekends. The pool is
    valid by construction: every day of week has trips, and each trip's
    times are clipped inside the day with the return after the departure."""
    records = []
    for dow in range(7):
        if dow < 5:
            dep = rng.normal(7.7, 0.6, TRAVELS_PER_DAY)
            ret = rng.normal(17.6, 0.8, TRAVELS_PER_DAY)
            dep = np.clip(dep, 5.0, 11.0)
            ret = np.clip(ret, 13.0, 23.5)
        else:
            dep = np.clip(rng.normal(9.5, 1.0, TRAVELS_PER_DAY), 6.0, 13.0)
            ret = np.clip(rng.normal(16.5, 1.5, TRAVELS_PER_DAY), 12.0, 23.5)
        ret = np.maximum(ret, dep + 1.5)
        for d, r in zip(dep, ret):
            records.append(
                TravelRecord(dow, int(d * 3600), min(int(r * 3600), SECONDS_PER_DAY - 1))
            )
    return records


def _bump(seconds_of_day: np.ndarray, center_s: float, width_s: float) -> np.ndarray:
    delta = np.abs(seconds_of_day - center_s)
    delta = np.minimum(delta, SECONDS_PER_DAY - delta)  # wrap around midnight
    return np.exp(-0.5 * (delta / width_s) ** 2)


def synth_baselines(
    rng: np.random.Generator, timebase: Timebase, n_households: int
) -> np.ndarray:
    """Baseline load matrix (households, n_steps) in kW.

    Each household is an idle floor plus morning and evening activity bumps,
    a weekend multiplier, and multiplicative AR(1) noise; the trace is then
    scaled to the household's own mean consumption level.
    """
    tb = timebase
    seconds, weekday = tb.calendar()
    weekend = (weekday >= 5).astype(float)

    out = np.empty((n_households, tb.n_steps))
    phi = 0.92
    for h in range(n_households):
        idle = rng.uniform(0.3, 0.5)
        m_amp = rng.uniform(0.3, 0.6)
        m_center = rng.normal(7.5, 0.7) * 3600
        m_width = rng.uniform(0.9, 1.5) * 3600
        e_amp = rng.uniform(0.5, 0.9)
        e_center = rng.normal(18.5, 0.4) * 3600
        e_width = rng.uniform(1.8, 2.6) * 3600
        wk_mult = rng.uniform(1.0, 1.1)

        bumps = m_amp * _bump(seconds, m_center, m_width) + e_amp * _bump(
            seconds, e_center, e_width
        )
        pattern = idle + bumps * (1.0 + (wk_mult - 1.0) * weekend)

        sigma = rng.uniform(0.01, 0.03)
        eps = rng.normal(0.0, sigma, tb.n_steps)
        noise = np.empty(tb.n_steps)
        acc = 0.0
        for t in range(tb.n_steps):
            acc = phi * acc + eps[t]
            noise[t] = acc
        trace = np.maximum(pattern * (1.0 + noise), 0.0)

        target_mean = rng.uniform(0.75, 1.05)
        mean = trace.mean()
        if mean > 0:
            trace *= target_mean / mean
        out[h] = trace
    return out


def build_requests(
    rng: np.random.Generator,
    timebase: Timebase,
    baselines: np.ndarray,
    travel_pool: list[TravelRecord],
    *,
    charging_share: float = DEFAULT_CHARGING_SHARE,
) -> list[ChargingRequest]:
    """Overnight charging requests of every household, as one list in
    household order and by arrival within a household.

    A travel day d yields a request open from the car's return on day d to
    its departure on day d+1, unless the household skips it (probability
    SKIP_PROBABILITY). Days are calendar days, so the times of day are wall
    clock whatever the timebase's start; a night whose return falls before
    the start, or whose departure after the end, yields nothing. Each
    household draws one rate limit from MAX_KW_RANGE. Energies are drawn from
    a gamma distribution and rescaled so total charging is `charging_share`
    of overall consumption (baseline plus charging). Demands a request window
    cannot physically absorb are clamped down, with a log note.
    """
    if not (0.0 < charging_share < 1.0):
        raise ConfigError(f"charging_share must be in (0, 1), got {charging_share}")
    tb = timebase
    if tb.n_steps // tb.steps_per_day < 2:
        raise ConfigError("request generation needs at least two full days")
    n_households = baselines.shape[0]
    seconds, weekday = tb.calendar()
    # The first step of each calendar day: step 0, and each step at which the
    # time of day wraps past midnight.
    firsts = np.flatnonzero(np.diff(seconds, prepend=np.inf) < 0).tolist()
    seconds, weekday = seconds.tolist(), weekday.tolist()

    by_dow: dict[int, list[TravelRecord]] = {d: [] for d in range(7)}
    for rec in travel_pool:
        by_dow[rec.day_of_week].append(rec)

    # First pass: windows and rate limits; energies come after global scaling.
    drafts: list[tuple[int, int, int, float]] = []  # household, arrive, depart, max_kw
    for h in range(n_households):
        max_kw = rng.uniform(*MAX_KW_RANGE)
        for day, next_day in zip(firsts, firsts[1:]):
            if rng.random() < SKIP_PROBABILITY:
                continue
            dow, dow_next = weekday[day], weekday[next_day]
            back = by_dow[dow][rng.integers(len(by_dow[dow]))]
            away = by_dow[dow_next][rng.integers(len(by_dow[dow_next]))]
            # A day's first step lies `seconds` after its midnight.
            arrive = day + math.ceil((back.return_s - seconds[day]) / tb.step_seconds)
            depart = next_day + math.floor((away.depart_s - seconds[next_day]) / tb.step_seconds)
            if arrive < 0 or depart <= arrive or depart > tb.n_steps:
                continue
            drafts.append((h, arrive, depart, max_kw))

    raw = rng.gamma(shape=2.5, scale=2.0, size=len(drafts))
    base_kwh = baselines.sum() * tb.step_hours
    target_kwh = base_kwh * charging_share / (1.0 - charging_share)
    if raw.sum() > 0:
        raw *= target_kwh / raw.sum()

    requests: list[ChargingRequest] = []
    clamped = 0
    for (h, arrive, depart, max_kw), kwh in zip(drafts, raw):
        cap = max_kw * (depart - arrive) * tb.step_hours
        if kwh > cap:
            kwh = cap * (1.0 - 1e-9)
            clamped += 1
        if kwh < MIN_REQUEST_KWH:
            continue
        requests.append(
            ChargingRequest(
                household_id=f"h{h:03d}",
                t_arrive=arrive,
                t_depart=depart,
                required_energy=float(kwh),
                max_kw=float(max_kw),
            )
        )
    if clamped:
        log.info("clamped %d charging demands to their window capacity", clamped)
    return requests


def synth_scenario(
    *,
    n_households: int = DEFAULT_HOUSEHOLDS,
    split_days: tuple[int, int, int] = DEFAULT_SPLIT_DAYS,
    step_seconds: int = 900,
    start: datetime | None = None,
    charging_share: float = DEFAULT_CHARGING_SHARE,
    seed: int = 0,
) -> tuple[Scenario, dict[str, tuple[int, int]], list[TravelRecord]]:
    """Full synthetic scenario plus split step-ranges and the travel pool.

    The scenario spans sum(split_days) days, with households h000, h001, ...
    whose baseline is the generator's matrix as drawn; splits are contiguous
    [start_step, end_step) ranges in train, tune, test order.
    """
    if len(split_days) != 3 or any(d < 1 for d in split_days):
        raise ConfigError(f"split_days needs three positive day counts, got {split_days}")
    if n_households < 1:
        raise ConfigError(f"n_households must be >= 1, got {n_households}")
    if step_seconds < 1:
        raise ConfigError(f"step_seconds must be >= 1, got {step_seconds}")
    n_days = sum(split_days)
    if start is None:
        start = datetime(2026, 3, 2)  # a Monday, so splits start week-aligned
    tb = Timebase(start=start, n_steps=n_days * (SECONDS_PER_DAY // step_seconds),
                  step_seconds=step_seconds)

    loads_rng, travel_rng, req_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )

    baselines = synth_baselines(loads_rng, tb, n_households)
    pool = build_travel_pool(travel_rng)
    requests = build_requests(
        req_rng, tb, baselines, pool, charging_share=charging_share
    )
    household_ids = tuple(f"h{h:03d}" for h in range(n_households))
    scenario = Scenario(tb, household_ids, baselines, tuple(requests))

    spd = tb.steps_per_day
    bounds = []
    cursor = 0
    for days in split_days:
        bounds.append((cursor * spd, (cursor + days) * spd))
        cursor += days
    splits = dict(zip(SPLIT_NAMES, bounds))
    return scenario, splits, pool


def charging_share_of(scenario: Scenario) -> float:
    """Realized fraction of overall energy that is charging."""
    base_kwh = scenario.baseline.sum() * scenario.timebase.step_hours
    charge_kwh = sum(r.required_energy for r in scenario.requests)
    total = base_kwh + charge_kwh
    return charge_kwh / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Dataset directory layout
# ---------------------------------------------------------------------------


def write_splits_json(
    splits: dict[str, tuple[int, int]], timebase: Timebase, path: str | Path
) -> None:
    doc = {
        "format_version": 1,
        "step_seconds": timebase.step_seconds,
        "splits": {
            name: {"start_step": int(a), "end_step": int(b)} for name, (a, b) in splits.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_splits_json(path: str | Path, timebase: Timebase) -> dict[str, tuple[int, int]]:
    """The split ranges of a manifest written for `timebase`'s dataset.

    Every number must be a JSON integer (not a boolean, not a float):
    `format_version` 1, `step_seconds` equal to the dataset's, and each
    split's `start_step` and `end_step` with 0 <= start < end <= n_steps,
    no two splits sharing a step. Anything else raises a ValidationError that
    names the file and field, and so does a path that is not a regular file.
    """
    if not Path(path).is_file():
        raise ValidationError(f"{path} is not a regular file")
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None

    if not isinstance(doc, dict) or not isinstance(doc.get("splits"), dict):
        raise ValidationError(f"{path}: malformed splits manifest")
    for field in ("format_version", "step_seconds"):
        if field not in doc:
            raise ValidationError(f"{path}: missing {field}")
    json_integer(path, "format_version", doc["format_version"], 1)
    json_integer(path, "step_seconds", doc["step_seconds"], timebase.step_seconds)
    splits = {}
    for name, rng in doc["splits"].items():
        if not isinstance(rng, dict) or not {"start_step", "end_step"} <= rng.keys():
            raise ValidationError(f"{path}: split {name!r} needs start_step and end_step")
        a = json_integer(path, f"splits.{name}.start_step", rng["start_step"])
        b = json_integer(path, f"splits.{name}.end_step", rng["end_step"])
        if not (0 <= a < b <= timebase.n_steps):
            raise ValidationError(
                f"{path}: split {name!r} range [{a},{b}) outside scenario "
                f"of {timebase.n_steps} steps"
            )
        for other, (c, d) in splits.items():
            if a < d and c < b:
                field = "start_step" if a >= c else "end_step"
                raise ValidationError(
                    f"{path}: splits.{name}.{field} makes split {name!r} [{a},{b}) "
                    f"overlap split {other!r} [{c},{d})"
                )
        splits[name] = (a, b)
    return splits


def save_dataset(
    directory: str | Path,
    scenario: Scenario,
    splits: dict[str, tuple[int, int]],
    travels: list[TravelRecord],
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, directory)
    write_splits_json(splits, scenario.timebase, directory / "splits.json")
    write_travels_csv(travels, directory / "travels.csv")


def load_dataset(directory: str | Path) -> tuple[Scenario, dict[str, tuple[int, int]]]:
    directory = Path(directory)
    scenario = load_scenario(directory)
    splits_path = directory / "splits.json"
    if splits_path.exists():
        splits = read_splits_json(splits_path, scenario.timebase)
    else:
        splits = {"train": (0, scenario.timebase.n_steps)}
    return scenario, splits


def split_scenario(
    scenario: Scenario, splits: dict[str, tuple[int, int]], name: str
) -> Scenario:
    if name not in splits:
        raise ConfigError(f"no split named {name!r}; have {sorted(splits)}")
    a, b = splits[name]
    return slice_scenario(scenario, a, b)
