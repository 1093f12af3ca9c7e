"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

The desk-scale scenario (20 households, 10 days, seed 11) keeps every check
runnable on a laptop. Training-based checks pin their seeds, so this module
is deterministic end to end.
"""

import time
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from gridcharge.cli import main
from gridcharge.controllers import (
    BASELINE_KINDS,
    KIND_CONST,
    KIND_MAX,
    KIND_MIN,
    build_reservoir,
    init_params,
    make_controller,
)
from gridcharge.data import split_scenario, synth_scenario
from gridcharge.domain import (
    FINISH_TOL_KWH,
    ChargingRequest,
    Scenario,
    Timebase,
)
from gridcharge.features import feature_count
from gridcharge.optim import cmaes_minimize, minimize_numgrad, train_cma, tune_smoothing
from gridcharge.oracle import optimal_schedule
from gridcharge.simulator import SimKernel, default_warmup, objective_std

ACCEPTANCE_SEED = 11
REDUCED_SCALE_SEED = 21
TRAINING_SEEDS = (0, 1, 2)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def requests_of(scenario: Scenario, household_id: str) -> list[ChargingRequest]:
    """The requests of one household, in the scenario's order."""
    return [r for r in scenario.requests if r.household_id == household_id]


@pytest.fixture(scope="module")
def acceptance():
    scenario, splits, _ = synth_scenario(
        n_households=20, split_days=(7, 2, 1), seed=ACCEPTANCE_SEED
    )
    return scenario, splits


@pytest.fixture(scope="module")
def acceptance_baselines(acceptance):
    scenario, _ = acceptance
    kernel = SimKernel(scenario)
    return {kind: objective_std(kernel.run(make_controller(kind))) for kind in BASELINE_KINDS}


@pytest.fixture(scope="module")
def reduced_scale_training():
    """Three seeded NN-A+CMA runs at the reduced budget, with timing."""
    scenario, splits, _ = synth_scenario(
        n_households=10, split_days=(8, 2, 4), seed=REDUCED_SCALE_SEED
    )
    train = split_scenario(scenario, splits, "train")
    tune = split_scenario(scenario, splits, "tune")
    test = split_scenario(scenario, splits, "test")
    const_test = objective_std(SimKernel(test).run(make_controller(KIND_CONST)))
    t0 = time.monotonic()
    runs = []
    for seed in TRAINING_SEEDS:
        rng = np.random.default_rng(seed)
        params0 = init_params("nn", "a", rng, smoothing=0.4)
        trained, _ = train_cma(
            train, params0, iterations=50, popsize=8, sigma0=0.3, workers=4, seed=seed
        )
        tuned, _ = tune_smoothing(tune, trained)
        test_std = objective_std(SimKernel(test).run(make_controller(tuned)))
        runs.append({"seed": seed, "params": tuned, "test_std": test_std})
    return {
        "runs": runs,
        "const_test_std": const_test,
        "elapsed": time.monotonic() - t0,
    }


def median_trained_params(training):
    """The run with the median held-out objective of the three."""
    ranked = sorted(training["runs"], key=lambda r: r["test_std"])
    return ranked[1]["params"]


@pytest.fixture(scope="module")
def acceptance_trained(acceptance):
    """The deployable controller for the acceptance scenario: three seeded
    NN-A+CMA runs at the library-default budget on the train split, smoothing
    tuned per run, keeping the run with the lowest objective on the full
    scenario. Selection is by the training objective; the peak property of
    criterion 5 plays no part in it."""
    scenario, splits = acceptance
    train = split_scenario(scenario, splits, "train")
    tune = split_scenario(scenario, splits, "tune")
    kernel = SimKernel(scenario)
    best = None
    for seed in TRAINING_SEEDS:
        rng = np.random.default_rng(seed)
        params0 = init_params("nn", "a", rng, smoothing=0.4)
        trained, _ = train_cma(train, params0, workers=4, seed=seed)
        tuned, _ = tune_smoothing(tune, trained)
        std = objective_std(kernel.run(make_controller(tuned)))
        if best is None or std < best[0]:
            best = (std, tuned)
    return best[1]


def test_criterion_1_feasibility_and_conservation():
    t0 = time.monotonic()
    # One reservoir seed for every ESN: controllers share the build of each
    # (input size, size, seed) across scenarios.
    rng = np.random.default_rng(123)
    worst_gap = 0.0
    for seed in range(50):
        scenario, _, _ = synth_scenario(n_households=20, split_days=(7, 2, 1), seed=seed)
        step_hours = scenario.timebase.step_hours
        required = np.array(
            [sum(r.required_energy for r in requests_of(scenario, hid))
             for hid in scenario.household_ids]
        )
        kernel = SimKernel(scenario)
        controllers = [make_controller(k) for k in BASELINE_KINDS]
        for kind in ("nn", "esn"):
            for mode in ("h", "a"):
                params = replace(init_params(kind, mode, rng), reservoir_seed=4242)
                controllers.append(make_controller(params))
        # kernel.run raises SimulationIncomplete if any request misses its
        # deadline, so reaching the conservation check covers feasibility
        for controller in controllers:
            result = kernel.run(controller)
            delivered = result.per_household_charging.sum(axis=1) * step_hours
            worst_gap = max(worst_gap, float(np.abs(delivered - required).max()))
    elapsed = time.monotonic() - t0
    report(
        "criterion 1",
        worst_gap <= 1e-6 and elapsed < 30.0,
        f"350 simulations, worst per-household energy gap {worst_gap:.2e} kWh "
        f"(tol 1e-6), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_2_baseline_ordering(acceptance_baselines):
    const = acceptance_baselines[KIND_CONST]
    low = acceptance_baselines[KIND_MIN]
    high = acceptance_baselines[KIND_MAX]
    report(
        "criterion 2",
        const < low < high,
        f"std const {const:.3f} < min {low:.3f} < max {high:.3f}",
    )


def test_criterion_3_training_beats_const(reduced_scale_training):
    const = reduced_scale_training["const_test_std"]
    stds = sorted(r["test_std"] for r in reduced_scale_training["runs"])
    median = stds[1]
    elapsed = reduced_scale_training["elapsed"]
    report(
        "criterion 3",
        median <= 0.95 * const and elapsed < 600.0,
        f"held-out std median {median:.4f} vs bar {0.95 * const:.4f} "
        f"(const {const:.4f}; ratios {[round(s / const, 4) for s in stds]}), "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_4_oracle_lower_bound(
    acceptance, acceptance_baselines, reduced_scale_training, acceptance_trained
):
    scenario, _ = acceptance
    oracle = optimal_schedule(scenario)
    oracle_std = objective_std(oracle.result)
    stds = dict(acceptance_baselines)
    stds["trained (reduced scale)"] = objective_std(
        SimKernel(scenario).run(make_controller(median_trained_params(reduced_scale_training)))
    )
    stds["trained (full budget)"] = objective_std(
        SimKernel(scenario).run(make_controller(acceptance_trained))
    )
    gaps = {name: std - oracle_std for name, std in stds.items()}
    bound_holds = oracle.converged and all(g >= -1e-6 for g in gaps.values())

    # Hand-checked two-step problem: baseline [0, 10] kW and a 2.5 kWh request
    # at up to 10 kW must charge everything in the first step for a flat load.
    timebase = Timebase(start=datetime(2026, 3, 2), n_steps=2, step_seconds=900)
    toy = Scenario(
        timebase=timebase,
        household_ids=("hh0",),
        baseline=np.array([[0.0, 10.0]]),
        requests=(
            ChargingRequest(
                household_id="hh0",
                t_arrive=0,
                t_depart=2,
                required_energy=2.5,
                max_kw=10.0,
            ),
        ),
    )
    toy_oracle = optimal_schedule(toy)
    toy_exact = (
        float(np.abs(toy_oracle.result.per_household_charging - np.array([[10.0, 0.0]])).max())
        <= 1e-6
        and objective_std(toy_oracle.result) <= 1e-6
    )

    worst = min(gaps, key=gaps.get)
    report(
        "criterion 4",
        bound_holds and toy_exact,
        f"oracle std {oracle_std:.3f} below every controller "
        f"(tightest: {worst} +{gaps[worst]:.3f}); two-step toy exact to 1e-6",
    )


def test_criterion_5_peak_preservation(acceptance, acceptance_trained):
    scenario, _ = acceptance
    warmup = default_warmup(scenario.timebase)
    no_charge_max = float(scenario.baseline.sum(axis=0)[warmup:].max())
    result = SimKernel(scenario).run(make_controller(acceptance_trained))
    trained_max = float(result.grid_load[warmup:].max())
    report(
        "criterion 5",
        trained_max <= 1.10 * no_charge_max,
        f"trained peak {trained_max:.3f} kW vs 1.10 x no-charge peak "
        f"{1.10 * no_charge_max:.3f} kW (ratio {trained_max / no_charge_max:.4f})",
    )


def test_criterion_6_reservoir_construction():
    alpha = 0.1
    size = 100
    d_in = feature_count("a")
    worst_radius = 0.0
    worst_fraction = 0.0
    contraction_ok = True
    for seed in range(20):
        weights = build_reservoir(d_in, size, seed)
        radius = float(np.abs(np.linalg.eigvals(weights.w_recurrent)).max())
        worst_radius = max(worst_radius, abs(radius - 1.0))
        fraction = np.count_nonzero(weights.w_recurrent) / size**2
        worst_fraction = max(worst_fraction, abs(fraction - 0.10))
        # zero input, zero bias: the leaky update must pull states toward the
        # tanh range at rate (1 - alpha) per step
        state = np.random.default_rng(seed).uniform(-3.0, 3.0, size)
        for _ in range(5):
            new = (1 - alpha) * state + alpha * np.tanh(weights.w_recurrent @ state)
            bound = (1 - alpha) * np.abs(state).max() + alpha
            if np.abs(new).max() > bound + 1e-12:
                contraction_ok = False
            state = new
    report(
        "criterion 6",
        worst_radius <= 1e-9 and worst_fraction <= 0.01 and contraction_ok,
        f"spectral radius within {worst_radius:.1e} of 1 (tol 1e-9), nonzero "
        f"fraction within {worst_fraction:.3f} of 0.10 (tol 0.01), sup-norm "
        f"contraction held for 20 seeds x 5 steps",
    )


def test_criterion_7_optimizer_sanity():
    def sphere(x: np.ndarray) -> float:
        return float(x @ x)

    failures = []
    for seed in range(20):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 10)
        res = cmaes_minimize(
            lambda points: [sphere(p) for p in points],
            x0, sigma0=0.5, iterations=250, popsize=10, seed=seed,
        )
        if not res.fitness < 1e-8:
            failures.append((seed, res.fitness))

    target = np.array([0.3, -0.2, 0.5])

    def quad_batch(points):
        return [float(np.sum((p - target) ** 2)) for p in points]

    res = minimize_numgrad(
        quad_batch, lambda: quad_batch, np.zeros(3), iterations=60, epsilon=1e-5
    )
    quad_gap = float(np.abs(res.x - target).max())
    report(
        "criterion 7",
        not failures and quad_gap <= 1e-3,
        f"10-D sphere under 1e-8 on 20/20 seeds{' (failed: %s)' % failures if failures else ''}; "
        f"quadratic optimum recovered within {quad_gap:.1e} (tol 1e-3)",
    )


def reference_min_with_memory(scenario: Scenario) -> np.ndarray:
    """Per-step delivered kW when the controller output is frozen at its own
    previous value: the deadline-keeping floor ratchets it upward and nothing
    else moves it. Mirrors the simulator's arithmetic operation for operation
    (including the finish tolerance and the reciprocal-multiply delivery cap)
    so the comparison can demand bit equality."""
    timebase = scenario.timebase
    dh = timebase.step_hours
    inv_dh = 1.0 / dh
    out = np.zeros((scenario.n_households, timebase.n_steps))
    for row, hid in enumerate(scenario.household_ids):
        open_request = {}
        for req in requests_of(scenario, hid):
            for t in range(req.t_arrive, req.t_depart):
                open_request[t] = req
        remaining = 0.0
        previous = 0.0
        for t in range(timebase.n_steps):
            req = open_request.get(t)
            if req is not None and t == req.t_arrive:
                remaining = req.required_energy
            if req is None or not remaining > FINISH_TOL_KWH:
                previous = 0.0  # output memory clears while the charger is idle
                continue
            steps_left = float(req.t_depart - t)
            slack = req.max_kw * (steps_left - 1.0) * dh
            floor = min(max(remaining - slack, 0.0) / dh, req.max_kw)
            commanded = min(max(previous, floor), req.max_kw)
            delivered = min(commanded, max(remaining, 0.0) * inv_dh)
            out[row, t] = delivered
            remaining = remaining - delivered * dh
            previous = commanded
    return out


def test_criterion_8_full_smoothing_ignores_weights():
    scenario, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=5)
    assert scenario.requests, "degeneracy check needs at least one request"
    kernel = SimKernel(scenario)
    charging = {}
    for kind in ("nn", "esn"):
        draws = []
        for draw in range(5):
            rng = np.random.default_rng(1000 + draw)
            params = init_params(
                kind, "a", rng, smoothing=1.0, reservoir_seed=200 + draw
            )
            draws.append(kernel.run(make_controller(params)).per_household_charging)
        bitwise_same = all(np.array_equal(draws[0], d) for d in draws[1:])
        charging[kind] = (draws[0], bitwise_same)
    reference = reference_min_with_memory(scenario)
    matches_reference = all(
        np.array_equal(first, reference) for first, _ in charging.values()
    )
    report(
        "criterion 8",
        all(same for _, same in charging.values()) and matches_reference,
        "with full smoothing, charging is bit-identical across 5 NN and 5 ESN "
        "weight draws and equals the independently recomputed "
        "max(deadline floor, previous output) trajectory",
    )


def test_criterion_9_cli_determinism(tmp_path):
    def pipeline(root):
        data = root / "data"
        params = root / "nn.json"
        args_gen = [
            "gen", "--out", str(data), "--seed", "3",
            "--config", "households=2", "--config", "train_days=2",
            "--config", "tune_days=1", "--config", "test_days=1",
        ]
        assert main(args_gen) == 0
        assert main([
            "train", "--data", str(data), "--out", str(params),
            "--iterations", "2", "--popsize", "4", "--workers", "1",
            "--seed", "4", "--log", str(root / "train_log.csv"), "--no-timestamps",
        ]) == 0
        assert main([
            "eval", "--data", str(data), "--out", str(root / "report"),
            "--params", str(params),
        ]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    same_files = sorted(first) == sorted(second)
    same_bytes = same_files and all(first[k] == second[k] for k in first)
    report(
        "criterion 9",
        same_bytes,
        f"gen + train + eval wrote {len(first)} files, byte-identical across two runs",
    )
