"""End-to-end checks of the gen/train/eval command line."""

import csv
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridcharge import cli
from gridcharge.cli import _safe_name, main, parse_gen_config
from gridcharge.controllers import init_params, load_params, make_controller, save_params
from gridcharge.data import load_dataset, split_scenario
from gridcharge.errors import (
    ConfigError,
    GridChargeError,
    ParameterError,
    SimulationError,
    SimulationIncomplete,
    ValidationError,
)
from gridcharge.optim import SMOOTHING_GRID

# Seed 7: 4/1/2 charging requests in train/tune/test. Overnight requests
# cross midnight and a split drops requests that cross its edges, so every
# split needs at least two days to hold one.
TINY = [
    "--config", "households=2",
    "--config", "train_days=3",
    "--config", "tune_days=2",
    "--config", "test_days=2",
]
# Seed 7 with 1-day tune and test splits: no request outside train.
EMPTY_TEST = [
    "--config", "households=2",
    "--config", "train_days=2",
    "--config", "tune_days=1",
    "--config", "test_days=1",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny"
    rc = run("gen", "--out", path, "--seed", 7, *TINY)
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    """Params file from a very short CMA-ES run."""
    path = tmp_path_factory.mktemp("params") / "nn.json"
    rc = run(
        "train", "--data", dataset, "--out", path,
        "--iterations", 2, "--popsize", 4, "--workers", 1, "--seed", 3,
    )
    assert rc == 0
    return path


def test_gen_writes_dataset_files(dataset):
    for name in ("loads.csv", "requests.csv", "travels.csv", "splits.json"):
        assert (dataset / name).exists()
    scenario, splits = load_dataset(dataset)
    assert scenario.n_households == 2
    assert scenario.timebase.n_steps == 7 * 96
    assert set(splits) == {"train", "tune", "test"}


def test_gen_is_deterministic(tmp_path):
    run("gen", "--out", tmp_path / "a", "--seed", 9, *TINY)
    run("gen", "--out", tmp_path / "b", "--seed", 9, *TINY)
    run("gen", "--out", tmp_path / "c", "--seed", 10, *TINY)
    for name in ("loads.csv", "requests.csv", "travels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "loads.csv").read_bytes() != (tmp_path / "c" / "loads.csv").read_bytes()


def test_gen_respects_start_and_step(tmp_path):
    rc = run(
        "gen", "--out", tmp_path / "d", "--seed", 1, *TINY,
        "--config", "step_seconds=1800",
        "--config", "start=2026-06-01T00:00:00",
    )
    assert rc == 0
    scenario, _ = load_dataset(tmp_path / "d")
    assert scenario.timebase.step_seconds == 1800
    assert scenario.timebase.n_steps == 7 * 48
    assert scenario.timebase.start.isoformat() == "2026-06-01T00:00:00"


@pytest.mark.parametrize(
    "entry",
    ["quantity=3", "households=many", "start=not-a-date", "households"],
)
def test_gen_rejects_bad_config(tmp_path, entry):
    assert run("gen", "--out", tmp_path / "x", "--config", entry) == 2


def test_parse_gen_config():
    cfg = parse_gen_config(["households=5", "charging_share=0.2"])
    assert cfg == {"households": 5, "charging_share": 0.2}
    assert parse_gen_config([]) == {}


def test_train_writes_loadable_params(dataset, trained):
    params = load_params(trained)
    assert params.kind == "nn"
    assert params.input_mode == "a"
    assert params.name == "nn-a+cma"
    assert params.trained_with == "cma"
    # --smoothing was not given, so the weight came out of the tuning grid
    assert params.smoothing in SMOOTHING_GRID
    make_controller(params)  # reconstructs without complaint


def test_train_log_csv(dataset, tmp_path):
    log_path = tmp_path / "progress.csv"
    rc = run(
        "train", "--data", dataset, "--out", tmp_path / "p.json",
        "--iterations", 2, "--popsize", 4, "--workers", 1, "--seed", 3,
        "--log", log_path, "--no-timestamps",
    )
    assert rc == 0
    with open(log_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "best_objective", "sigma_or_step", "evaluations", "wall_seconds"]
    body = rows[1:]
    assert len(body) == 2
    assert [int(r[0]) for r in body] == [1, 2]
    assert all(r[4] == "0.000" for r in body)
    best = [float(r[1]) for r in body]
    assert best[1] <= best[0]


def test_train_fixed_smoothing_skips_tuning(dataset, tmp_path):
    out = tmp_path / "fixed.json"
    rc = run(
        "train", "--data", dataset, "--out", out,
        "--iterations", 1, "--popsize", 4, "--workers", 1, "--seed", 3,
        "--smoothing", 0.25,
    )
    assert rc == 0
    # 0.25 is not on the tuning grid, so seeing it back proves no re-tune ran
    assert load_params(out).smoothing == 0.25


def test_train_esn(dataset, tmp_path):
    out = tmp_path / "esn.json"
    rc = run(
        "train", "--data", dataset, "--out", out,
        "--controller", "esn", "--reservoir-size", 20,
        "--iterations", 1, "--popsize", 4, "--workers", 1, "--seed", 5,
        "--name", "small-esn",
    )
    assert rc == 0
    params = load_params(out)
    assert params.kind == "esn"
    assert params.reservoir_size == 20
    assert params.name == "small-esn"


def test_train_numgrad_clamps_long_window(dataset, tmp_path, caplog):
    # the training split is 72h, shorter than a 96h window
    with caplog.at_level(logging.WARNING, logger="gridcharge"):
        rc = run(
            "train", "--data", dataset, "--out", tmp_path / "ng.json",
            "--optimizer", "numgrad", "--iterations", 1, "--workers", 1,
            "--seed", 2, "--smoothing", 0.0, "--window-hours", 96,
        )
    assert rc == 0
    assert any("clamping" in r.message for r in caplog.records)
    assert load_params(tmp_path / "ng.json").trained_with == "numgrad"


def test_eval_writes_summary_and_run_dirs(dataset, trained, tmp_path):
    out = tmp_path / "report"
    rc = run("eval", "--data", dataset, "--out", out, "--params", trained)
    assert rc == 0
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["controller", "std_kw", "min_kw", "p2_5_kw", "p97_5_kw", "max_kw"]
    names = [r[0] for r in rows[1:]]
    assert names == ["no_charge", "max_charge", "min_charge", "const_charge", "nn-a+cma", "oracle"]
    for name in names[:-1]:
        run_dir = out / _safe_name(name)
        for artifact in ("loads_out.csv", "metrics.json", "changes.csv"):
            assert (run_dir / artifact).exists()
    oracle_metrics = json.loads((out / "oracle" / "oracle_metrics.json").read_text())
    assert oracle_metrics["converged"] == 1
    assert oracle_metrics["iterations"] >= 0
    assert isinstance(oracle_metrics["duality_gap"], float)
    stds = {r[0]: float(r[1]) for r in rows[1:]}
    for name in ("max_charge", "min_charge", "const_charge", "nn-a+cma"):
        assert stds["oracle"] <= stds[name] + 1e-9


def test_eval_no_oracle(dataset, tmp_path):
    out = tmp_path / "bare"
    rc = run("eval", "--data", dataset, "--out", out, "--no-oracle")
    assert rc == 0
    with open(out / "summary.csv", newline="") as f:
        names = [r[0] for r in list(csv.reader(f))[1:]]
    assert "oracle" not in names
    assert not (out / "oracle").exists()


def test_eval_unknown_split_falls_back_to_whole_scenario(dataset, tmp_path, caplog):
    out = tmp_path / "whole"
    with caplog.at_level(logging.WARNING, logger="gridcharge"):
        rc = run("eval", "--data", dataset, "--out", out, "--split", "bogus", "--no-oracle")
    assert rc == 0
    assert any("whole scenario" in r.message for r in caplog.records)
    with open(out / "no_charge" / "loads_out.csv", newline="") as f:
        n_rows = sum(1 for _ in f) - 1
    assert n_rows == 7 * 96


def test_eval_warns_when_the_split_holds_no_request(tmp_path, caplog):
    dataset = tmp_path / "empty-test"
    assert run("gen", "--out", dataset, "--seed", 7, *EMPTY_TEST) == 0
    scenario, splits = load_dataset(dataset)
    assert not split_scenario(scenario, splits, "test").requests
    with caplog.at_level(logging.WARNING, logger="gridcharge"):
        rc = run("eval", "--data", dataset, "--out", tmp_path / "empty", "--no-oracle")
    assert rc == 0
    assert any("'test' split holds no charging request" in r.message for r in caplog.records)

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gridcharge"):
        rc = run("eval", "--data", dataset, "--out", tmp_path / "all", "--split", "all",
                 "--no-oracle")
    assert rc == 0
    assert not any("no charging request" in r.message for r in caplog.records)


def test_eval_duplicate_names_get_distinct_dirs(dataset, trained, tmp_path):
    out = tmp_path / "dup"
    rc = run(
        "eval", "--data", dataset, "--out", out,
        "--params", trained, "--params", trained, "--no-oracle",
    )
    assert rc == 0
    assert (out / "nn-a+cma").is_dir()
    assert (out / "nn-a+cma_2").is_dir()


def test_missing_dataset_exits_3(tmp_path):
    assert run("eval", "--data", tmp_path / "nope", "--out", tmp_path / "o") == 3
    assert run("train", "--data", tmp_path / "nope", "--out", tmp_path / "p.json") == 3


def test_bad_step_seconds_header_exits_3(tmp_path, caplog):
    data = tmp_path / "bad"
    data.mkdir()
    (data / "loads.csv").write_text(
        "timestamp,household_id,baseline_kw,step_seconds=abc\n2026-03-02T00:00:00,h000,1.0\n"
    )
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", data, "--out", tmp_path / "o", "--no-oracle")
    assert rc == 3
    assert any("loads.csv row 1" in r.message for r in caplog.records)


def test_loads_row_off_the_step_grid_exits_3(tmp_path, caplog):
    data = tmp_path / "bad"
    data.mkdir()
    (data / "loads.csv").write_text(
        "timestamp,household_id,baseline_kw\n"
        "2026-03-02T00:00:00,h1,1.0\n"
        "2026-03-02T05:00:00,h1,1.0\n"
        "2026-03-02T00:00:00,h1,1.0\n"
    )
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", data, "--out", tmp_path / "o", "--no-oracle")
    assert rc == 3
    assert any("loads.csv row 3" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "field,value",
    [
        ("start_step", "NaN"),
        ("start_step", "1e400"),
        ("start_step", '"abc"'),
        ("start_step", "120.7"),
        ("start_step", '"12"'),
        ("start_step", "true"),
        ("format_version", "2"),
        ("format_version", '"x"'),
        ("step_seconds", "3600"),
    ],
)
def test_bad_splits_json_value_exits_3(dataset, tmp_path, caplog, field, value):
    data = tmp_path / "bad"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "splits.json").read_text())
    node = doc["splits"]["test"] if field == "start_step" else doc
    node[field] = "@BAD@"
    (data / "splits.json").write_text(json.dumps(doc).replace('"@BAD@"', value))
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", data, "--out", tmp_path / "o", "--no-oracle")
    assert rc == 3
    assert any("splits.json" in r.message and field in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "file,fields",
    [
        ("requests.csv", {"required_kwh": "nan"}),
        ("requests.csv", {"required_kwh": "-5"}),
        ("requests.csv", {"max_kw": "nan"}),
        ("requests.csv", {"max_kw": "inf"}),
        ("requests.csv", {"required_kwh": "0", "max_kw": "nan"}),
        ("loads.csv", {"baseline_kw": "nan"}),
        ("loads.csv", {"baseline_kw": "inf"}),
        ("loads.csv", {"baseline_kw": "1e200"}),
        ("requests.csv", {"required_kwh": "1e200", "max_kw": "1e300"}),
    ],
)
def test_bad_number_in_dataset_csv_exits_3(dataset, tmp_path, caplog, file, fields):
    data = tmp_path / "bad"
    shutil.copytree(dataset, data)
    with open(data / file, newline="") as f:
        rows = list(csv.reader(f))
    for column, value in fields.items():
        rows[1][rows[0].index(column)] = value  # file row 2
    with open(data / file, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", data, "--out", tmp_path / "o", "--split", "all")
    assert rc == 3
    assert any(f"{file} row 2" in r.message for r in caplog.records)


def test_malformed_params_file_exits_3(dataset, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "nn", "input_mode": "h", "theta": ["abc"],
    }))
    rc = run("eval", "--data", dataset, "--out", tmp_path / "o", "--params", path, "--no-oracle")
    assert rc == 3


def test_params_file_with_non_string_name_exits_3(dataset, tmp_path, caplog):
    path = tmp_path / "p.json"
    save_params(init_params("nn", "h", np.random.default_rng(0)), path)
    doc = json.loads(path.read_text())
    doc["name"] = 123
    path.write_text(json.dumps(doc))
    rc = run("eval", "--data", dataset, "--out", tmp_path / "o", "--params", path, "--no-oracle")
    assert rc == 3
    assert any(str(path) in r.message and "name" in r.message for r in caplog.records)


def _eval_copy(dataset, trained, tmp_path, caplog, file, spoil):
    """Exit code and error lines of `eval` on a copy of the dataset, with the
    params file copied in beside it, after `spoil` is applied to `file`."""
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    shutil.copy(trained, data / "params.json")
    spoil(data / file)
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", data, "--out", tmp_path / "o",
                 "--params", data / "params.json", "--no-oracle")
    return rc, [r.message for r in caplog.records]


def _append_ff(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def _latin1_household_id(path):
    path.write_bytes(path.read_bytes().replace(b"h000", b"h\xe9"))


@pytest.mark.parametrize(
    "file,spoil",
    [
        ("loads.csv", _append_ff),
        ("loads.csv", _latin1_household_id),
        ("requests.csv", _append_ff),
        ("splits.json", _append_ff),
        ("params.json", _append_ff),
    ],
)
def test_undecodable_byte_exits_3_naming_the_file(dataset, trained, tmp_path, caplog, file,
                                                   spoil):
    rc, errors = _eval_copy(dataset, trained, tmp_path, caplog, file, spoil)
    assert rc == 3
    assert any(file in message for message in errors)


def _lengthen_line(path, line, digit, count):
    """Append `count` copies of `digit` to line `line` (1-based) of the file."""
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] += digit * count
    path.write_bytes(b"\r\n".join(lines))


def test_oversized_loads_field_exits_3_naming_the_file(dataset, trained, tmp_path, caplog):
    rc, errors = _eval_copy(dataset, trained, tmp_path, caplog, "loads.csv",
                            lambda path: _lengthen_line(path, 6, b"9", 200_000))
    assert rc == 3
    assert any("loads.csv line 6: field larger than field limit" in m for m in errors)


def test_oversized_requests_field_exits_3_naming_the_file(dataset, tmp_path, caplog):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _lengthen_line(data / "requests.csv", 3, b"7", 140_000)
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("train", "--data", data, "--out", tmp_path / "p.json",
                 "--iterations", 1, "--popsize", 4)
    assert rc == 3
    assert any("requests.csv line 3: field larger than field limit" in r.message
               for r in caplog.records)


def _directory_in_place(path):
    path.unlink()
    path.mkdir()


# A dataset file that is a directory is bad data; an unreadable --params path
# is a usage error.
@pytest.mark.parametrize(
    "file,code",
    [("loads.csv", 3), ("requests.csv", 3), ("splits.json", 3), ("params.json", 2)],
)
def test_file_replaced_by_a_directory(dataset, trained, tmp_path, caplog, file, code):
    rc, errors = _eval_copy(dataset, trained, tmp_path, caplog, file, _directory_in_place)
    assert rc == code
    assert any(file in message for message in errors)


# Bad values given on the command line are usage errors, whichever layer
# rejects them.
USAGE_ERRORS = {
    "smoothing-above-1": ["train", "--smoothing", 2.0],
    "leak-rate-0": ["train", "--leak-rate", 0],
    "negative-iterations": ["train", "--iterations", -1],
    "workers-flag-0": ["train", "--workers", 0],
    "negative-window": ["train", "--optimizer", "numgrad", "--window-hours", -5],
    "epsilon-0": ["train", "--optimizer", "numgrad", "--epsilon", 0],
    "epsilon-inf": ["train", "--optimizer", "numgrad", "--epsilon", "inf"],
    "sigma0-nan": ["train", "--sigma0", "nan"],
    "window-nan": ["train", "--optimizer", "numgrad", "--window-hours", "nan"],
    "step-not-dividing-a-day": ["gen", "--config", "step_seconds=7"],
    "step-not-dividing-an-hour": ["gen", "--config", "step_seconds=7200"],
    "step-0": ["gen", "--config", "step_seconds=0"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_2(dataset, tmp_path, argv):
    command, *flags = argv
    out = tmp_path / "out"
    log = tmp_path / "log.csv"
    if command == "gen":
        rc = run("gen", "--out", out, *flags)
    else:
        # argparse keeps the last value of a repeated flag, so `flags` override
        # the small budget before them.
        rc = run(
            "train", "--data", dataset, "--out", out, "--log", log,
            "--iterations", 1, "--popsize", 4, "--workers", 1, *flags,
        )
    assert rc == 2
    assert not out.exists()
    assert not log.exists()


@pytest.mark.parametrize("flag", ["--hidden-size", "--reservoir-size"])
def test_train_rejects_empty_network_exits_2(dataset, tmp_path, flag):
    rc = run(
        "train", "--data", dataset, "--out", tmp_path / "p.json",
        "--iterations", 1, "--popsize", 2, flag, 0,
    )
    assert rc == 2
    assert not (tmp_path / "p.json").exists()


def test_missing_params_file_exits_2(dataset, tmp_path):
    rc = run(
        "eval", "--data", dataset, "--out", tmp_path / "o",
        "--params", tmp_path / "absent.json", "--no-oracle",
    )
    assert rc == 2


def test_safe_name():
    assert _safe_name("nn-a+cma") == "nn-a+cma"
    assert _safe_name("my controller/v2") == "my_controller_v2"
    assert _safe_name("///") == "controller"


@pytest.mark.parametrize(
    "error,code",
    [
        (GridChargeError, 2),
        (ConfigError, 2),
        (OSError, 2),
        (ValidationError, 3),
        (ParameterError, 3),
        (SimulationError, 4),
        (SimulationIncomplete, 4),
    ],
)
def test_each_error_class_exits_with_its_code(monkeypatch, tmp_path, caplog, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_eval", fail)
    with caplog.at_level(logging.ERROR, logger="gridcharge"):
        rc = run("eval", "--data", tmp_path, "--out", tmp_path / "o")
    assert rc == code
    assert any(r.message == "boom" for r in caplog.records)


def test_process_exit_status(tmp_path):
    # The child process imports the same gridcharge as this one.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def status(*argv):
        command = [sys.executable, "-m", "gridcharge.cli", *map(str, argv)]
        return subprocess.run(command, env=env, capture_output=True).returncode

    assert status("gen", "--out", tmp_path / "d", "--config", "step_seconds=7") == 2
    assert not (tmp_path / "d").exists()
    assert status("eval", "--data", tmp_path / "absent", "--out", tmp_path / "o") == 3
