import csv
import json
from datetime import datetime

import numpy as np
import pytest

from gridcharge.data import (
    DEFAULT_CHARGING_SHARE,
    MIN_REQUEST_KWH,
    SPLIT_NAMES,
    TravelRecord,
    build_travel_pool,
    charging_share_of,
    load_dataset,
    read_splits_json,
    save_dataset,
    split_scenario,
    synth_baselines,
    synth_scenario,
    write_splits_json,
)
from gridcharge.domain import Timebase
from gridcharge.errors import ConfigError, ValidationError


def test_travel_pool_covers_every_weekday():
    pool = build_travel_pool(np.random.default_rng(0))
    assert len(pool) == 7 * 60
    by_dow = {d: [r for r in pool if r.day_of_week == d] for d in range(7)}
    assert all(len(v) == 60 for v in by_dow.values())
    for r in pool:
        assert r.return_s - r.depart_s >= int(1.5 * 3600) - 1
    # weekday commutes leave within the clipped morning band
    for r in by_dow[0]:
        assert 5 * 3600 <= r.depart_s <= 11 * 3600


def test_baselines_shape_and_positivity():
    tb = Timebase(start=datetime(2026, 3, 2), n_steps=3 * 96)
    out = synth_baselines(np.random.default_rng(2), tb, 5)
    assert out.shape == (5, 3 * 96)
    assert np.all(out >= 0.0)
    assert np.all(np.isfinite(out))
    # household means land near their drawn targets
    means = out.mean(axis=1)
    assert np.all(means > 0.5) and np.all(means < 1.3)


def test_baselines_have_a_daily_pattern():
    tb = Timebase(start=datetime(2026, 3, 2), n_steps=7 * 96)
    out = synth_baselines(np.random.default_rng(3), tb, 8)
    total = out.sum(axis=0).reshape(7, 96).mean(axis=0)
    evening = total[17 * 4 : 21 * 4].mean()
    night = total[1 * 4 : 5 * 4].mean()
    assert evening > 1.5 * night


def test_requests_fit_their_windows():
    sc, _, _ = synth_scenario(n_households=6, split_days=(2, 1, 1), seed=7)
    tb = sc.timebase
    for r in sc.requests:
        assert 0 <= r.t_arrive < r.t_depart <= tb.n_steps
        assert r.required_energy >= MIN_REQUEST_KWH
        assert r.required_energy <= r.max_deliverable_kwh(tb.step_hours)
        # overnight windows: shorter than two days
        assert r.total_steps < 2 * tb.steps_per_day


def seconds_of_day(when):
    return (when - when.replace(hour=0, minute=0, second=0, microsecond=0)).total_seconds()


@pytest.mark.parametrize("start", [datetime(2026, 3, 2), datetime(2026, 3, 2, 12),
                                   datetime(2026, 3, 2, 19, 40, 7)])
def test_requests_follow_the_wall_clock_at_any_start(start):
    """Cars come home and leave within the travel pool's times of day, on
    the grid: an arrival is a return rounded up to a step, a departure a
    departure rounded down."""
    sc, _, pool = synth_scenario(n_households=5, split_days=(3, 2, 2), seed=3, start=start)
    tb = sc.timebase
    returns = [r.return_s for r in pool]
    departs = [r.depart_s for r in pool]
    assert sc.requests
    for r in sc.requests:
        arrive = seconds_of_day(tb.step_to_datetime(r.t_arrive))
        depart = seconds_of_day(tb.step_to_datetime(r.t_depart))
        assert min(returns) <= arrive < max(returns) + tb.step_seconds
        assert min(departs) - tb.step_seconds < depart <= max(departs)


def test_charging_share_is_close_to_requested():
    sc, _, _ = synth_scenario(n_households=12, split_days=(4, 2, 2), seed=4)
    share = charging_share_of(sc)
    assert abs(share - DEFAULT_CHARGING_SHARE) < 0.02


def test_synth_scenario_deterministic_per_seed():
    a, sa, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=9)
    b, sb, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=9)
    c, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=10)
    assert sa == sb
    assert np.array_equal(a.baseline, b.baseline)
    assert list(a.requests) == list(b.requests)
    assert not np.array_equal(a.baseline, c.baseline)


def test_split_ranges_are_contiguous_days():
    sc, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=0)
    spd = sc.timebase.steps_per_day
    assert list(splits) == list(SPLIT_NAMES)
    assert splits["train"] == (0, 2 * spd)
    assert splits["tune"] == (2 * spd, 3 * spd)
    assert splits["test"] == (3 * spd, 4 * spd)


@pytest.mark.parametrize("bad", [(0, 1, 1), (2, 1), (1, 1, 1, 1)])
def test_synth_scenario_rejects_bad_splits(bad):
    with pytest.raises(ConfigError):
        synth_scenario(n_households=2, split_days=bad, seed=0)


def test_split_scenario_slices_and_validates_name():
    sc, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=1)
    tune = split_scenario(sc, splits, "tune")
    assert tune.timebase.n_steps == sc.timebase.steps_per_day
    spd = sc.timebase.steps_per_day
    assert np.array_equal(
        tune.baseline[0],
        sc.baseline[0, 2 * spd : 3 * spd],
    )
    with pytest.raises(ConfigError, match="no split named"):
        split_scenario(sc, splits, "validation")


def test_splits_json_round_trip(tmp_path):
    sc, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=1)
    path = tmp_path / "splits.json"
    write_splits_json(splits, sc.timebase, path)
    assert read_splits_json(path, sc.timebase) == splits


def test_splits_json_rejects_garbage(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        read_splits_json(path, Timebase(start=datetime(2026, 3, 2), n_steps=96))


# (field, JSON text of the bad value) for a manifest of a 900-s dataset.
BAD_SPLITS_FIELDS = [
    ("splits.train.start_step", "NaN"),
    ("splits.train.start_step", "1e400"),
    ("splits.train.start_step", '"abc"'),
    ("splits.train.start_step", "120.7"),
    ("splits.train.start_step", "0.0"),
    ("splits.train.start_step", '"12"'),
    ("splits.train.start_step", "true"),
    ("splits.tune.end_step", "null"),
    ("splits.test.start_step", "100"),
    ("format_version", "2"),
    ("format_version", '"x"'),
    ("format_version", "true"),
    ("step_seconds", "3600"),
    ("step_seconds", "900.0"),
]


def splits_json_with(field: str, value: str) -> str:
    """A valid 2/1/1-day manifest of a 900-s dataset with one field's JSON
    text replaced."""
    doc = {
        "format_version": 1,
        "step_seconds": 900,
        "splits": {
            "train": {"start_step": 0, "end_step": 192},
            "tune": {"start_step": 192, "end_step": 288},
            "test": {"start_step": 288, "end_step": 384},
        },
    }
    *parents, leaf = field.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = "@BAD@"
    return json.dumps(doc, indent=2).replace('"@BAD@"', value)


@pytest.mark.parametrize("field,value", BAD_SPLITS_FIELDS)
def test_splits_json_rejects_bad_field(tmp_path, field, value):
    path = tmp_path / "splits.json"
    path.write_text(splits_json_with(field, value))
    tb = Timebase(start=datetime(2026, 3, 2), n_steps=4 * 96)
    with pytest.raises(ValidationError) as info:
        read_splits_json(path, tb)
    assert str(path) in str(info.value)
    assert field in str(info.value)


def test_splits_json_rejects_missing_fields(tmp_path):
    path = tmp_path / "splits.json"
    tb = Timebase(start=datetime(2026, 3, 2), n_steps=4 * 96)
    for field in ("format_version", "step_seconds"):
        doc = json.loads(splits_json_with("format_version", "1"))
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"missing {field}"):
            read_splits_json(path, tb)
    doc = json.loads(splits_json_with("format_version", "1"))
    del doc["splits"]["test"]["end_step"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="split 'test' needs start_step and end_step"):
        read_splits_json(path, tb)


def test_dataset_directory_round_trip(tmp_path):
    sc, splits, pool = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=6)
    save_dataset(tmp_path / "ds", sc, splits, travels=pool)
    loaded, loaded_splits = load_dataset(tmp_path / "ds")
    assert loaded_splits == splits
    assert np.array_equal(loaded.baseline, sc.baseline)
    assert list(loaded.requests) == list(sc.requests)
    with open(tmp_path / "ds" / "travels.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["day_of_week", "depart_s", "return_s"]
    assert [TravelRecord(*map(int, row)) for row in rows[1:]] == pool


def test_load_dataset_without_splits_file(tmp_path):
    sc, splits, pool = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=6)
    save_dataset(tmp_path / "ds", sc, splits, travels=pool)
    (tmp_path / "ds" / "splits.json").unlink()
    _, loaded_splits = load_dataset(tmp_path / "ds")
    assert loaded_splits == {"train": (0, sc.timebase.n_steps)}


def test_load_dataset_rejects_out_of_range_split(tmp_path):
    sc, splits, pool = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=6)
    bad = dict(splits)
    bad["test"] = (0, 10_000)
    save_dataset(tmp_path / "ds", sc, bad, travels=pool)
    with pytest.raises(ValidationError, match="outside scenario"):
        load_dataset(tmp_path / "ds")
