"""Reference figures quoted in README.md, beside the benchmark proper.

Run from the repository root:

    python3 perfbench/reference.py pool      # cma-nn-20 at --workers 1 and 2, alternating
    python3 perfbench/reference.py seeds [workload ...]   # test_std_kw over training seeds 0-4

`pool` begins to answer whether the process pool pays on the host: two
pairs of cma-nn-20 rounds, one at --workers 1 and one at --workers 2. The
benchmark itself never starts a pool. `seeds` trains every workload with
five training seeds and reports the spread of test_std_kw, on which that
metric's bound rests: run to run it repeats exactly.
"""

import shutil
import statistics
import sys
from dataclasses import replace

import checks
import run
from hostspeed import Meter


def one_round(wl: run.Workload, tag: str, workers: int = 1) -> run.Pipeline:
    root = run.WORK / "reference" / tag
    shutil.rmtree(root, ignore_errors=True)
    pipe = run.run_pipeline(wl, root, 0.0, workers=workers, meter=Meter())
    fails = run.check_pipeline(wl, pipe)
    if pipe.failed or fails:
        raise SystemExit(f"{tag}: {pipe.failed} commands failed; {fails}")
    return pipe


def pool() -> None:
    wl = replace(run.WORKLOADS["cma-nn-20"], eval_repeats=1)
    print("| pair | workers | train wall s |")
    print("| --- | --- | --- |")
    for pair in range(2):
        for workers in (1, 2):
            pipe = one_round(wl, f"pool-{workers}", workers)
            print(f"| {pair + 1} | {workers} | {pipe.rounds[0].train.wall_s:.2f} |", flush=True)


def seeds(*names: str) -> None:
    print("| workload | test_std_kw at training seeds 0-4 | (max - min) / median |")
    print("| --- | --- | --- |")
    for name in names or run.WORKLOADS:
        wl = run.WORKLOADS[name]
        values = []
        for seed in range(5):
            pipe = one_round(replace(wl, train_seed=seed, eval_repeats=1), f"{name}-{seed}")
            summary = checks.read_summary(pipe.rounds[0].directory / "eval0" / "summary.csv")
            values.append(summary[wl.trained_name])
        spread = (max(values) - min(values)) / statistics.median(values)
        print(f"| {name} | {', '.join(f'{v:.4f}' for v in values)} | {spread:.4f} |", flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    {"pool": pool, "seeds": seeds}[sys.argv[1]](*sys.argv[2:])
