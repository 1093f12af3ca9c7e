"""Command line entry points: generate data, train controllers, evaluate.

Subcommands:
  gen    write a synthetic dataset (loads, requests, travels, splits)
  train  fit a controller on a dataset's training split
  eval   compare controllers and the centralized optimum on a split

Exit codes: 0 success, 2 bad configuration or usage, 3 invalid input data,
4 simulation failure. A bad value from the command line or a --config entry
is usage (2), whichever layer rejects it; a missing or malformed dataset, or
a malformed params file, is bad data (3).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import re
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from . import data as datamod
from .controllers import (
    BASELINE_KINDS,
    DEFAULT_HIDDEN_SIZE,
    DEFAULT_LEAK_RATE,
    DEFAULT_RESERVOIR_SIZE,
    TRAINABLE_KINDS,
    init_params,
    load_params,
    make_controller,
    save_params,
)
from .domain import Scenario, SimResult
from .errors import ConfigError, GridChargeError, ValidationError
from .oracle import REL_TOL as ORACLE_REL_TOL, optimal_schedule
from .optim import (
    DEFAULT_EPSILON,
    DEFAULT_ITERATIONS,
    DEFAULT_OBJECTIVE_HOURS,
    DEFAULT_POPSIZE,
    DEFAULT_SIGMA0,
    DEFAULT_WINDOW_HOURS,
    train_cma,
    train_numgrad,
    tune_smoothing,
)
from .simulator import (
    SimKernel,
    no_charge_result,
    result_metrics,
    write_changes_csv,
    write_loads_out_csv,
    write_metrics_json,
)

log = logging.getLogger("gridcharge")

GEN_CONFIG_KEYS = {
    "households": int,
    "train_days": int,
    "tune_days": int,
    "test_days": int,
    "step_seconds": int,
    "charging_share": float,
    "start": str,
}

SUMMARY_COLUMNS = ["controller", "std_kw", "min_kw", "p2_5_kw", "p97_5_kw", "max_kw"]


def parse_gen_config(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"config entries look like key=value, got {pair!r}")
        if key not in GEN_CONFIG_KEYS:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {sorted(GEN_CONFIG_KEYS)}"
            )
        try:
            out[key] = GEN_CONFIG_KEYS[key](raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    return out


def cmd_gen(args: argparse.Namespace) -> int:
    # Only the keys the user gave reach synth_scenario, which holds the
    # defaults of the rest.
    cfg = parse_gen_config(args.config or [])
    if "households" in cfg:
        cfg["n_households"] = cfg.pop("households")
    split_keys = ("train_days", "tune_days", "test_days")
    if any(key in cfg for key in split_keys):
        cfg["split_days"] = tuple(
            cfg.pop(key, days) for key, days in zip(split_keys, datamod.DEFAULT_SPLIT_DAYS)
        )
    if "start" in cfg:
        try:
            cfg["start"] = datetime.fromisoformat(cfg["start"])
        except ValueError:
            raise ConfigError(f"config key 'start': bad timestamp {cfg['start']!r}") from None
    try:
        scenario, splits, travels = datamod.synth_scenario(seed=args.seed, **cfg)
    except ValidationError as exc:
        # Everything the generator validates came from --config.
        raise ConfigError(str(exc)) from None
    datamod.save_dataset(args.out, scenario, splits, travels)
    share = datamod.charging_share_of(scenario)
    log.info(
        "wrote %s: %d households, %d steps, %d requests, charging share %.3f",
        args.out,
        scenario.n_households,
        scenario.timebase.n_steps,
        len(scenario.requests),
        share,
    )
    return 0


class TrainLogWriter:
    """Appends one CSV row per optimizer iteration. As a context manager it
    closes the file on exit, and deletes it when training failed before the
    first row."""

    def __init__(self, path: Path, timestamps: bool):
        self.path = path
        self.rows = 0
        self.file = open(path, "w", newline="")
        self.writer = csv.writer(self.file)
        self.writer.writerow(
            ["iteration", "best_objective", "sigma_or_step", "evaluations", "wall_seconds"]
        )
        self.timestamps = timestamps
        self.t0 = time.monotonic()

    def __call__(self, record: dict) -> None:
        wall = time.monotonic() - self.t0 if self.timestamps else 0.0
        detail = record.get("sigma", record.get("step_size", 0.0))
        self.writer.writerow(
            [
                record["iteration"],
                repr(float(record["best_objective"])),
                repr(float(detail)),
                record["evaluations"],
                f"{wall:.3f}",
            ]
        )
        self.file.flush()
        self.rows += 1

    def __enter__(self) -> TrainLogWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.file.close()
        if exc_type is not None and self.rows == 0:
            self.path.unlink()


def _split_or(scenario: Scenario, splits: dict, name: str, fallback: Scenario,
              instead: str) -> Scenario:
    """The `name` split, or else `fallback` and a warning of what is done `instead`."""
    if name in splits:
        return datamod.split_scenario(scenario, splits, name)
    log.warning("dataset has no %r split; %s", name, instead)
    return fallback


def cmd_train(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    scenario, splits = datamod.load_dataset(args.data)
    train_scenario = _split_or(scenario, splits, "train", scenario, "training on the whole scenario")

    seeds = np.random.SeedSequence(args.seed).spawn(4)
    init_rng = np.random.default_rng(seeds[0])
    opt_seed = int(seeds[1].generate_state(1)[0])
    reservoir_seed = int(seeds[2].generate_state(1)[0] % (2**31 - 1))
    window_seed = int(seeds[3].generate_state(1)[0])

    # Train through a mild output low-pass unless the user pinned one.
    # With no smoothing at all the objective rewards policies that lean on
    # single-step bursts, which score well in training and poorly out of
    # sample; the weight is re-tuned on the tune split afterwards anyway.
    params0 = init_params(
        args.controller,
        args.inputs,
        init_rng,
        smoothing=args.smoothing if args.smoothing is not None else 0.4,
        hidden_size=args.hidden_size,
        reservoir_size=args.reservoir_size,
        leak_rate=args.leak_rate,
        reservoir_seed=reservoir_seed,
    )

    log_writer = (
        TrainLogWriter(Path(args.log), timestamps=not args.no_timestamps)
        if args.log else contextlib.nullcontext()
    )
    with log_writer as log_fn:
        if args.optimizer == "cma":
            trained, opt = train_cma(
                train_scenario,
                params0,
                iterations=args.iterations,
                popsize=args.popsize,
                sigma0=args.sigma0,
                seed=opt_seed,
                workers=args.workers,
                log_fn=log_fn,
            )
        else:
            trained, opt = train_numgrad(
                train_scenario,
                params0,
                iterations=args.iterations,
                epsilon=args.epsilon,
                window_hours=args.window_hours,
                objective_hours=args.objective_hours,
                seed=window_seed,
                workers=args.workers,
                log_fn=log_fn,
            )

    if args.smoothing is None:
        tune_scenario = _split_or(
            scenario, splits, "tune", train_scenario, "tuning smoothing on the training split"
        )
        trained, table = tune_smoothing(tune_scenario, trained)
        log.info(
            "smoothing tuned to %.1f (candidates: %s)",
            trained.smoothing,
            ", ".join(f"{b:.1f}:{s:.3f}" for b, s in table),
        )

    trained.name = args.name or f"{args.controller}-{args.inputs}+{args.optimizer}"
    save_params(trained, args.out)
    log.info(
        "trained %s in %d iterations (%d evaluations), objective %.4f -> %s",
        trained.name,
        args.iterations,
        opt.evaluations,
        opt.fitness,
        args.out,
    )
    return 0


def _controller_results(
    scenario: Scenario, params_paths: list[str]
) -> list[tuple[str, SimResult]]:
    """The no_charge reference, the baselines and every params file, each
    simulated on one kernel. The kernel's tables are freed on return, before
    the oracle allocates its own."""
    kernel = SimKernel(scenario)
    rows = [("no_charge", no_charge_result(scenario))]
    for kind in BASELINE_KINDS:
        rows.append((kind, kernel.run(make_controller(kind))))
    for path in params_paths:
        params = load_params(path)
        rows.append((params.name or Path(path).stem, kernel.run(make_controller(params))))
    return rows


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "_", name).strip("_") or "controller"


def cmd_eval(args: argparse.Namespace) -> int:
    scenario, splits = datamod.load_dataset(args.data)
    eval_scenario = scenario if args.split == "all" else _split_or(
        scenario, splits, args.split, scenario, "evaluating on the whole scenario"
    )
    if not eval_scenario.requests:
        log.warning(
            "the %r split holds no charging request; every controller will score as no_charge",
            args.split,
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = _controller_results(eval_scenario, args.params or [])
    summary_rows = []
    used_names = set()
    for name, result in rows:
        dir_name = _safe_name(name)
        if dir_name in used_names:
            suffix = 2
            while f"{dir_name}_{suffix}" in used_names:
                suffix += 1
            dir_name = f"{dir_name}_{suffix}"
        used_names.add(dir_name)
        run_dir = out_dir / dir_name
        run_dir.mkdir(exist_ok=True)
        write_loads_out_csv(result, run_dir / "loads_out.csv")
        m = result_metrics(result)
        write_metrics_json(m, run_dir / "metrics.json")
        write_changes_csv(result, run_dir / "changes.csv")
        summary_rows.append(
            [name] + [repr(m[c]) for c in SUMMARY_COLUMNS[1:]]
        )
        log.info("%-24s std %8.3f kW  max %8.3f kW", name, m["std_kw"], m["max_kw"])

    if not args.no_oracle:
        oracle = optimal_schedule(eval_scenario)
        if not oracle.converged:
            log.warning(
                "centralized optimum did not fully converge: duality gap %.3e kW^2 is above "
                "%g of its sum of squared load; its bound may be loose",
                oracle.duality_gap, ORACLE_REL_TOL,
            )
        oracle_dir = out_dir / "oracle"
        oracle_dir.mkdir(exist_ok=True)
        write_loads_out_csv(oracle.result, oracle_dir / "oracle_schedule.csv")
        m = result_metrics(oracle.result)
        metrics = dict(m, converged=int(oracle.converged), iterations=oracle.iterations,
                       duality_gap=oracle.duality_gap)
        write_metrics_json(metrics, oracle_dir / "oracle_metrics.json")
        summary_rows.append(["oracle"] + [repr(m[c]) for c in SUMMARY_COLUMNS[1:]])
        log.info("%-24s std %8.3f kW  max %8.3f kW", "oracle", m["std_kw"], m["max_kw"])

    with open(out_dir / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_COLUMNS)
        w.writerows(summary_rows)
    log.info("wrote %s", out_dir / "summary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcharge",
        description="Decentralized EV-charging simulation and controller training.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out", required=True, help="output dataset directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--config",
        action="append",
        metavar="KEY=VALUE",
        help=f"generator settings; keys: {', '.join(sorted(GEN_CONFIG_KEYS))}",
    )
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a controller on a dataset")
    p_train.add_argument("--data", required=True, help="dataset directory from gen")
    p_train.add_argument("--out", required=True, help="output parameters file (JSON)")
    p_train.add_argument("--controller", choices=TRAINABLE_KINDS, default="nn")
    p_train.add_argument("--inputs", choices=("h", "a"), default="a",
                         help="h: household-local features, a: household plus grid")
    p_train.add_argument("--optimizer", choices=("cma", "numgrad"), default="cma")
    p_train.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p_train.add_argument("--popsize", type=int, default=DEFAULT_POPSIZE)
    p_train.add_argument("--sigma0", type=float, default=DEFAULT_SIGMA0)
    p_train.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_train.add_argument("--window-hours", type=float, default=DEFAULT_WINDOW_HOURS)
    p_train.add_argument("--objective-hours", type=float, default=DEFAULT_OBJECTIVE_HOURS)
    p_train.add_argument("--hidden-size", type=int, default=DEFAULT_HIDDEN_SIZE)
    p_train.add_argument("--reservoir-size", type=int, default=DEFAULT_RESERVOIR_SIZE)
    p_train.add_argument("--leak-rate", type=float, default=DEFAULT_LEAK_RATE)
    p_train.add_argument("--smoothing", type=float, default=None,
                         help="fix the output smoothing weight instead of tuning it")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--workers", type=int, default=1,
                         help="parallel evaluation processes (default: 1)")
    p_train.add_argument("--log", help="write per-iteration progress to this CSV")
    p_train.add_argument("--no-timestamps", action="store_true",
                         help="zero wall-clock columns for reproducible logs")
    p_train.add_argument("--name", help="name stored in the parameters file")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate controllers against baselines")
    p_eval.add_argument("--data", required=True, help="dataset directory from gen")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--params", action="append",
                        help="trained parameters file (repeatable)")
    p_eval.add_argument("--split", default="test",
                        help="dataset split to evaluate on, or 'all' (default: test)")
    p_eval.add_argument("--no-oracle", action="store_true",
                        help="skip the centralized-optimum bound")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (GridChargeError, OSError) as exc:
        log.error("%s", exc)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
