"""Benchmark of gridcharge's gen -> train -> eval pipeline at a fixed budget.

Run from the repository root:

    python3 perfbench/run.py --workload numgrad-esn-20 --seed 1 --seconds 10 --trace 0

One process imports gridcharge from the checkout's src/ (the package is not
installed) and drives the command line through gridcharge.cli.main(argv):
`gen` once as set-up, then rounds of `train` and `eval --split test` until
--seconds have passed, at least one round. Every output is checked by
checks.py, which does not import gridcharge. The last line printed is one
JSON result: correct, operations attempted and failed (an operation is one
CLI command), and the end-to-end metrics. Their timings are in reference
seconds: wall time scaled by a probe of the host's speed taken while each
command runs (hostspeed.py); the raw wall times go to standard error.

With --trace 1 the pipeline runs twice in the process, one round and one
eval each: plain, then with the timing wrappers of tracer.py installed. The
result carries the per-layer metrics and trace.overhead_s (traced minus
plain wall time), and the two pipelines' output files must be
byte-identical. The spans are written to
.perfbench_work/<workload>-trace/spans.npz.

--seed is recorded but changes no input: each workload pins its generator
and training seeds, so test_std_kw repeats exactly from run to run and a
trainer that trains worse shows as a regression.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the start of the process

import os

# BLAS reads its thread count when numpy is first imported. One thread keeps
# the program within the box's cores and the runs comparable; the process
# pool stays off (GRIDCHARGE_WORKERS unset, --workers 1).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRIDCHARGE_WORKERS", None)

import argparse
import json
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
from hostspeed import Meter, Timing
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

GEN_20 = (
    "--seed", "11", "--config", "households=20",
    "--config", "train_days=7", "--config", "tune_days=2", "--config", "test_days=3",
)


@dataclass(frozen=True)
class Workload:
    """One fixed dataset and training budget. See README.md for the reasons."""

    gen: tuple[str, ...]
    kind: str
    inputs: str
    optimizer: str
    iterations: int
    popsize: int = 8
    train_extra: tuple[str, ...] = ()
    train_seed: int = 0
    # eval is repeated within a round when one eval lasts under a second, and
    # its median reported.
    eval_repeats: int = 1

    @property
    def trained_name(self) -> str:
        return f"{self.kind}-{self.inputs}+{self.optimizer}"

    def train_args(self, workers: int) -> list[str]:
        return [
            "--controller", self.kind, "--inputs", self.inputs,
            "--optimizer", self.optimizer, "--iterations", str(self.iterations),
            "--popsize", str(self.popsize), *self.train_extra,
            "--seed", str(self.train_seed), "--workers", str(workers),
            "--no-timestamps",
        ]


WORKLOADS = {
    "cma-nn-20": Workload(
        gen=GEN_20, kind="nn", inputs="a", optimizer="cma", iterations=40, eval_repeats=6,
    ),
    "numgrad-esn-20": Workload(
        gen=GEN_20, kind="esn", inputs="h", optimizer="numgrad", iterations=3,
        train_extra=("--window-hours", "72", "--objective-hours", "48"), eval_repeats=6,
    ),
    "default-74": Workload(
        gen=(
            "--seed", "0", "--config", "households=74",
            "--config", "train_days=15", "--config", "tune_days=8", "--config", "test_days=21",
        ),
        kind="nn", inputs="a", optimizer="cma", iterations=3,
    ),
}


@dataclass
class Round:
    directory: Path
    train: Timing
    evals: list[Timing]
    ok: bool  # every command of the round exited 0


@dataclass
class Pipeline:
    """What one gen + rounds of train/eval did, with its timings."""

    setup: Timing | None = None
    dataset: object = None
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0


def _cli(argv: list[str]) -> int:
    from gridcharge import cli

    return cli.main(argv)


def _command(pipe: Pipeline, argv: list[str], meter: Meter | None) -> tuple[bool, Timing | None]:
    """Runs one CLI command, timed by the meter if there is one."""
    if meter is None:
        code, timing = _cli(argv), None
    else:
        code, timing = meter.time(_cli, argv)
    pipe.attempted += 1
    if code != 0:
        pipe.failed += 1
        print(f"command failed with exit code {code}: {' '.join(argv)}", file=sys.stderr)
    return code == 0, timing


def run_pipeline(
    wl: Workload, root: Path, seconds: float, workers: int = 1, meter: Meter | None = None,
) -> Pipeline:
    """`gen` once, then rounds of `train` and `eval` until `seconds` have
    passed since the first round began (one round at least). With a meter,
    set-up is timed from the start of the process and every command on its
    own."""
    t0 = time.perf_counter()
    data = root / "data"
    pipe = Pipeline()
    ok, _ = _command(pipe, ["gen", "--out", str(data), *wl.gen], None)
    if ok:
        pipe.dataset = checks.read_dataset(data)
    if meter is not None:
        pipe.setup = meter.since_start(_T0)
    rounds_start = time.perf_counter()

    while True:
        rdir = root / f"round{len(pipe.rounds)}"
        rdir.mkdir(parents=True)
        params = str(rdir / "params.json")
        train_ok, train = _command(pipe, [
            "train", "--data", str(data), "--out", params,
            "--log", str(rdir / "train_log.csv"), *wl.train_args(workers),
        ], meter)
        evals = []
        round_ok = ok and train_ok
        for i in range(wl.eval_repeats):
            eval_ok, timing = _command(pipe, [
                "eval", "--data", str(data), "--out", str(rdir / f"eval{i}"),
                "--params", params, "--split", "test",
            ], meter)
            evals.append(timing)
            round_ok = round_ok and eval_ok
        pipe.rounds.append(Round(rdir, train, evals, round_ok))
        if time.perf_counter() - rounds_start >= seconds:
            break
    pipe.wall_s = time.perf_counter() - t0
    return pipe


def check_pipeline(wl: Workload, pipe: Pipeline) -> list[str]:
    """Checks every round's outputs; later rounds and evals must repeat the
    first byte for byte."""
    if pipe.dataset is None:
        return []
    fails = []
    first = None
    for rnd in pipe.rounds:
        if not rnd.ok:
            continue
        if first is None:
            first = rnd
            fails += checks.check_training(
                rnd.directory / "train_log.csv", rnd.directory / "params.json",
                kind=wl.kind, inputs=wl.inputs, optimizer=wl.optimizer,
                iterations=wl.iterations, popsize=wl.popsize,
            )
            fails += checks.check_eval(pipe.dataset, "test", rnd.directory / "eval0", wl.trained_name)
        else:
            fails += checks.same_files(first.directory, rnd.directory)
        for i in range(1, wl.eval_repeats):
            fails += checks.same_files(rnd.directory / "eval0", rnd.directory / f"eval{i}")
    return fails


def test_std_kw(wl: Workload, pipe: Pipeline) -> float | None:
    for rnd in pipe.rounds:
        if rnd.ok:
            return checks.read_summary(rnd.directory / "eval0" / "summary.csv")[wl.trained_name]
    return None


def plain_run(wl: Workload, work: Path, seconds: float, meter: Meter) -> tuple[dict, list[str], Pipeline]:
    pipe = run_pipeline(wl, work, seconds, meter=meter)
    ok_rounds = [r for r in pipe.rounds if r.ok]
    fails = check_pipeline(wl, pipe)
    metrics = {}
    if ok_rounds:
        trains = [r.train for r in ok_rounds]
        evals = [e for r in ok_rounds for e in r.evals]
        metrics = {
            "setup_s": pipe.setup.reference_s,
            "train_s": statistics.median(t.reference_s for t in trains),
            "eval_s": statistics.median(e.reference_s for e in evals),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_std_kw": test_std_kw(wl, pipe),
        }
        # The figures the reference seconds were scaled from.
        for name, timings in (("setup", [pipe.setup]), ("train", trains), ("eval", evals)):
            print(
                f"{name}: median wall {statistics.median(t.wall_s for t in timings):.4f} s, "
                f"probe {1e3 * statistics.median(t.probe_mean_s for t in timings):.4f} ms "
                f"over {sum(t.probes for t in timings)} probes",
                file=sys.stderr,
            )
    return metrics, fails, pipe


def traced_run(wl: Workload, work: Path) -> tuple[dict, list[str], list[Pipeline]]:
    # One eval per pass keeps two passes well within a run's time limit.
    wl = replace(wl, eval_repeats=1)
    plain = run_pipeline(wl, work / "plain", 0.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pipeline(wl, work / "traced", 0.0)
    finally:
        tracer.uninstall()
    tracer.save(work / "spans.npz")
    fails = check_pipeline(wl, plain) + check_pipeline(wl, traced)
    fails += checks.same_files(work / "plain", work / "traced")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics, fails, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; changes no input")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "gridcharge" / "__init__.py").is_file():
        print(f"no gridcharge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gridcharge

    if Path(gridcharge.__file__).resolve().parent != (src / "gridcharge").resolve():
        print(f"imported gridcharge from {gridcharge.__file__}, not {src}", file=sys.stderr)
        return 2

    # A plain run deletes its outputs once checked, so that the next run's
    # set-up does not pay for deleting them; a traced run keeps its own.
    wl = WORKLOADS[args.workload]
    work = WORK / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "run.json").write_text(json.dumps(vars(args)) + "\n")

    if args.trace:
        metrics, fails, pipes = traced_run(wl, work)
        wanted = spec["per_layer"]
    else:
        meter = Meter()
        meter.start()
        try:
            metrics, fails, pipe = plain_run(wl, work, args.seconds, meter)
        finally:
            meter.stop()
        pipes = [pipe]
        wanted = spec["end_to_end"]
        if not fails:
            shutil.rmtree(work)
    for f in fails:
        print(f"CHECK FAILED {f}", file=sys.stderr)

    out = {}
    for m in wanted:
        value = metrics.get(m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            out[m["name"]]["absent"] = True
    result = {
        "correct": not fails,
        "attempted": sum(p.attempted for p in pipes),
        "failed": sum(p.failed for p in pipes),
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
