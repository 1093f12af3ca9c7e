from dataclasses import replace

import numpy as np
import pytest

from gridcharge.controllers import KIND_ESN, KIND_NN, init_params, make_controller
from gridcharge.data import synth_scenario, split_scenario
from gridcharge.errors import ConfigError
from gridcharge.optim import (
    SMOOTHING_GRID,
    CmaEs,
    Evaluator,
    _candidates_per_run,
    cmaes_minimize,
    finite_difference_gradient,
    minimize_numgrad,
    train_cma,
    train_numgrad,
    tune_smoothing,
    window_steps_for,
)
from gridcharge.simulator import SimKernel, objective_std


def sphere(x):
    return float(np.dot(x, x))


def batch_of(f):
    """The batch objective that scores each point with `f`."""
    return lambda points: [f(p) for p in points]


def test_cmaes_solves_a_small_sphere():
    res = cmaes_minimize(batch_of(sphere), np.full(5, 2.0), sigma0=0.5, iterations=200, seed=1)
    assert res.fitness < 1e-8


def test_cmaes_handles_bad_conditioning():
    scales = np.array([1.0, 100.0])

    def f(x):
        return float(np.sum(scales * x * x))

    res = cmaes_minimize(batch_of(f), np.array([1.5, -1.0]), sigma0=0.5, iterations=200, seed=0)
    assert res.fitness < 1e-8


def test_cmaes_history_is_monotone_and_starts_at_x0():
    rows = []
    res = cmaes_minimize(
        batch_of(sphere), np.zeros(4), sigma0=1.0, iterations=30, seed=2, log_fn=rows.append
    )
    best = [row["best_objective"] for row in rows]
    assert res.fitness == 0.0  # can never end worse than the starting point
    assert np.array_equal(res.x, np.zeros(4))
    assert best == [0.0] * 30
    assert [row["iteration"] for row in rows] == list(range(1, 31))


def test_cmaes_best_is_monotone_and_strict():
    """The logged best never rises, the result is the last logged best, and
    a candidate that only ties the best so far does not replace it."""
    rows = []
    x0 = np.full(3, 1.0)
    res = cmaes_minimize(
        batch_of(sphere), x0, sigma0=0.5, iterations=20, seed=4, log_fn=rows.append
    )
    best = [row["best_objective"] for row in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best[0] <= sphere(x0)
    assert res.fitness == best[-1] == sphere(res.x)

    def flat(points):
        return [1.0 for _ in points]

    res = cmaes_minimize(flat, x0, sigma0=0.5, iterations=3, seed=0)
    assert res.fitness == 1.0
    assert np.array_equal(res.x, x0)


def test_cmaes_non_finite_start_takes_first_finite_candidate():
    x0 = np.ones(2)
    calls = []

    def f(points):
        calls.append(np.array(points))
        return [float("nan") if np.array_equal(p, x0) else sphere(p) for p in points]

    res = cmaes_minimize(f, x0, sigma0=0.3, iterations=1, popsize=4, seed=0)
    candidates = calls[0][1:]
    assert res.fitness == min(sphere(p) for p in candidates)


def _cmaes_scoring_x0_alone(f_batch, x0, *, sigma0, iterations, popsize, seed, log_fn):
    """Reference CMA-ES loop that scores the starting point in a call of its
    own before the first generation."""
    es = CmaEs(x0, sigma0, popsize=popsize, seed=seed)
    f0 = float(f_batch([es.best_x])[0])
    if np.isfinite(f0):
        es.best_f = f0
    evaluations = 1
    for it in range(iterations):
        xs = es.ask()
        es.tell(xs, f_batch(list(xs)))
        evaluations += es.lam
        log_fn({"iteration": it + 1, "best_objective": es.best_f, "sigma": es.sigma,
                "evaluations": evaluations})
    return es.best_x, es.best_f, evaluations


@pytest.mark.parametrize("iterations", [0, 1, 7])
def test_cmaes_scores_x0_with_the_first_generation(iterations):
    """x0 leads the first batch, each later generation is one batch, and the
    progress record and result equal those of scoring x0 on its own."""
    x0 = np.full(4, 1.5)
    popsize = 6
    calls, rows = [], []

    def f(points):
        calls.append(np.array(points))
        return [sphere(p) for p in points]

    res = cmaes_minimize(
        f, x0, sigma0=0.4, iterations=iterations, popsize=popsize, seed=9, log_fn=rows.append
    )
    assert np.array_equal(calls[0][0], x0)
    sizes = [1] if iterations == 0 else [1 + popsize] + [popsize] * (iterations - 1)
    assert [len(c) for c in calls] == sizes
    assert res.evaluations == 1 + iterations * popsize

    ref_rows = []
    ref_x, ref_f, ref_evals = _cmaes_scoring_x0_alone(
        batch_of(sphere), x0, sigma0=0.4, iterations=iterations, popsize=popsize, seed=9,
        log_fn=ref_rows.append,
    )
    assert rows == ref_rows
    assert (res.fitness, res.evaluations) == (ref_f, ref_evals)
    assert np.array_equal(res.x, ref_x)


def test_cmaes_survives_non_finite_regions():
    def f(x):
        if np.linalg.norm(x) > 3.0:
            return float("inf")
        return sphere(x)

    res = cmaes_minimize(batch_of(f), np.full(3, 1.6), sigma0=0.4, iterations=120, seed=3)
    assert np.isfinite(res.fitness)
    assert res.fitness < 1e-6


def test_cmaes_evaluation_count():
    res = cmaes_minimize(
        batch_of(sphere), np.ones(3), sigma0=0.3, iterations=10, popsize=6, seed=0
    )
    assert res.evaluations == 1 + 10 * 6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x0=np.ones((2, 2)), sigma0=0.3),
        dict(x0=np.ones(3), sigma0=0.0),
        dict(x0=np.ones(3), sigma0=0.3, popsize=1),
    ],
)
def test_cmaes_constructor_validation(kwargs):
    with pytest.raises(ConfigError):
        CmaEs(kwargs.pop("x0"), kwargs.pop("sigma0"), **kwargs)


def test_cmaes_tell_requires_matching_ask():
    es = CmaEs(np.zeros(3), 0.3, popsize=4, seed=0)
    with pytest.raises(ConfigError):
        es.tell(np.zeros((4, 3)), [0.0] * 4)
    xs = es.ask()
    with pytest.raises(ConfigError):
        es.tell(xs, [0.0] * 3)


def test_finite_difference_gradient_on_quadratic():
    a = np.array([1.0, 4.0, 9.0])

    def batch(points):
        return [float(np.sum(a * p * p)) for p in points]

    x = np.array([1.0, -2.0, 0.5])
    grad = finite_difference_gradient(batch, x, epsilon=1e-6)
    assert np.allclose(grad, 2 * a * x, atol=1e-4)


def test_numgrad_recovers_quadratic_optimum():
    target = np.array([0.3, -1.2, 2.0])

    def batch(points):
        return [float(np.sum((p - target) ** 2)) for p in points]

    rows = []
    res = minimize_numgrad(batch, lambda: batch, np.zeros(3), iterations=60, log_fn=rows.append)
    assert np.allclose(res.x, target, atol=1e-3)
    best = [row["best_objective"] for row in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert res.fitness == best[-1]


def test_numgrad_rejects_non_improving_steps():
    # a constant objective has zero gradient everywhere: nothing to try,
    # nothing accepted, history flat
    def batch(points):
        return [5.0 for _ in points]

    rows = []
    res = minimize_numgrad(batch, lambda: batch, np.ones(4), iterations=3, log_fn=rows.append)
    assert [row["best_objective"] for row in rows] == [5.0, 5.0, 5.0]
    assert [row["step_size"] for row in rows] == [0.0, 0.0, 0.0]
    assert res.fitness == 5.0
    assert np.array_equal(res.x, np.ones(4))
    # only the initial full evaluation and the per-iteration probes
    assert res.evaluations == 1 + 3 * (4 + 1)


def test_numgrad_logs_progress():
    rows = []

    def batch(points):
        return [sphere(p) for p in points]

    minimize_numgrad(batch, lambda: batch, np.ones(2), iterations=2, log_fn=rows.append)
    assert len(rows) == 2
    assert rows[0]["iteration"] == 1
    assert "step_size" in rows[0]


# ---------------------------------------------------------------------------
# Scenario-level training
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    scenario, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=13)
    return split_scenario(scenario, splits, "train")


@pytest.fixture(scope="module")
def crowd():
    """Enough households that a batch a few candidates past what one run may
    hold still simulates quickly."""
    scenario, splits, _ = synth_scenario(n_households=60, split_days=(2, 1, 1), seed=13)
    return split_scenario(scenario, splits, "train")


def lone_scores(kernel, template, thetas, smoothing, start, end, warmup):
    """Each candidate's objective from a lone `SimKernel.run` of its own."""
    return [
        objective_std(
            kernel.run(
                make_controller(replace(template, theta=theta, smoothing=float(beta))),
                start_step=start, end_step=end, warmup_steps=warmup,
            )
        )
        for theta, beta in zip(thetas, smoothing)
    ]


@pytest.mark.parametrize("kind", [KIND_NN, KIND_ESN])
@pytest.mark.parametrize("mode", ["h", "a"])
def test_batch_objectives_equal_lone_runs(crowd, kind, mode):
    """A batch split over several runs scores every candidate exactly as its
    lone run does, each with its own smoothing, on the full scenario and on a
    window from mid-scenario with warmup."""
    rng = np.random.default_rng(6)
    template = init_params(kind, mode, rng, reservoir_size=20)
    kernel = SimKernel(crowd)
    n_cand = _candidates_per_run(crowd, template) + 2
    thetas = template.theta + 0.5 * rng.standard_normal((n_cand, template.theta.size))
    smoothing = rng.uniform(0.0, 1.0, n_cand)
    for start, end, warmup in ((0, None, None), (50, 150, 40)):
        with Evaluator(crowd, template) as ev:
            batch = ev._map(thetas, smoothing, start, end, warmup)
        lone = lone_scores(kernel, template, thetas, smoothing, start, end, warmup)
        assert batch == lone
        assert len(set(lone)) == n_cand


def test_evaluator_maps_match_single_calls(tiny):
    p = init_params(KIND_NN, "h", np.random.default_rng(0))
    with Evaluator(tiny, p) as ev:
        thetas = [p.theta, p.theta * 0.5]
        batch = ev.map_full(thetas)
        assert batch == [ev.map_full([t])[0] for t in thetas]


def test_evaluator_window_scores_tail_of_window(tiny):
    p = init_params(KIND_NN, "h", np.random.default_rng(0))
    from gridcharge.simulator import SimKernel, objective_std
    from gridcharge.controllers import make_controller

    with Evaluator(tiny, p) as ev:
        got = ev.map_window([p.theta], start=10, window_steps=60, objective_steps=20)[0]
    kernel = SimKernel(tiny)
    want = objective_std(
        kernel.run(make_controller(p), start_step=10, end_step=70, warmup_steps=40)
    )
    assert got == want


def test_evaluator_worker_pool_agrees_with_local(crowd):
    """Runs spread over worker processes, each candidate with its own
    smoothing, score exactly what the same runs score in-process and what
    each candidate's lone run scores."""
    rng = np.random.default_rng(1)
    p = init_params(KIND_NN, "a", rng)
    n_cand = _candidates_per_run(crowd, p) + 2
    thetas = p.theta + 0.5 * rng.standard_normal((n_cand, p.theta.size))
    smoothing = rng.uniform(0.0, 1.0, n_cand)
    kernel = SimKernel(crowd)
    with Evaluator(crowd, p) as local, Evaluator(crowd, p, workers=2) as pooled:
        for start, end, warmup in ((0, None, None), (50, 150, 40)):
            want = local._map(thetas, smoothing, start, end, warmup)
            assert pooled._map(thetas, smoothing, start, end, warmup) == want
            assert want == lone_scores(kernel, p, thetas, smoothing, start, end, warmup)
        assert pooled.map_full(list(thetas)) == local.map_full(list(thetas))


def test_evaluator_starts_its_pool_only_for_a_batch_of_several_runs(crowd):
    """Batches that each fit in one run are scored in-process at any worker
    count, and score what they score with one worker; the pool starts with
    the first batch of several runs."""
    rng = np.random.default_rng(2)
    p = init_params(KIND_NN, "a", rng)
    n_cand = _candidates_per_run(crowd, p)
    thetas = list(p.theta + 0.5 * rng.standard_normal((n_cand + 1, p.theta.size)))
    with Evaluator(crowd, p) as local, Evaluator(crowd, p, workers=2) as ev:
        assert ev.map_full(thetas[:n_cand]) == local.map_full(thetas[:n_cand])
        assert ev.map_window(thetas[:2], 50, 100, 60) == local.map_window(thetas[:2], 50, 100, 60)
        assert ev._pool is None
        ev.map_full(thetas)
        assert ev._pool is not None


def test_train_cma_never_regresses_and_tags_params(tiny):
    p0 = init_params(KIND_NN, "h", np.random.default_rng(2))
    with Evaluator(tiny, p0) as ev:
        f0 = ev.map_full([p0.theta])[0]
    rows = []
    trained, res = train_cma(tiny, p0, iterations=2, popsize=4, seed=0, log_fn=rows.append)
    assert res.fitness <= rows[0]["best_objective"] <= f0
    assert res.fitness == rows[-1]["best_objective"]
    assert trained.trained_with == "cma"
    assert trained.kind == KIND_NN


def test_train_cma_steps_each_generation_in_one_run(tiny, monkeypatch):
    """When a generation plus the starting point fits one batch run, training
    costs one simulation loop per generation."""
    p0 = init_params(KIND_NN, "h", np.random.default_rng(2))
    popsize, iterations = 4, 3
    assert _candidates_per_run(tiny, p0) >= popsize + 1
    runs = []
    real_run = SimKernel.run

    def counting_run(self, controller, **kwargs):
        runs.append(controller.candidates)
        return real_run(self, controller, **kwargs)

    monkeypatch.setattr(SimKernel, "run", counting_run)
    train_cma(tiny, p0, iterations=iterations, popsize=popsize, seed=0)
    assert runs == [popsize + 1] + [popsize] * (iterations - 1)


def test_window_steps_for_converts_hours():
    scenario, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=13)
    assert window_steps_for(scenario, 72, 48) == (288, 192)
    with pytest.raises(ConfigError):
        window_steps_for(scenario, 12, 12)
    train = split_scenario(scenario, splits, "tune")  # one day
    # Clamped to the 24 h split, with the scored part shrunk to 24 * 48 / 72 h.
    assert window_steps_for(train, 72, 48) == (96, 64)


def test_train_numgrad_improves_monotonically(tiny):
    p0 = init_params(KIND_NN, "h", np.random.default_rng(3))
    rows = []
    trained, res = train_numgrad(
        tiny, p0, iterations=2, window_hours=12, objective_hours=6, seed=0, log_fn=rows.append
    )
    assert trained.trained_with == "numgrad"
    best = [row["best_objective"] for row in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert res.evaluations >= 1 + 2 * (p0.theta.size + 1)


def test_tune_smoothing_ties_break_low():
    # without any requests every smoothing weight scores the same
    scenario, splits, _ = synth_scenario(n_households=2, split_days=(2, 1, 1), seed=13)
    bare = type(scenario)(scenario.timebase, scenario.household_ids, scenario.baseline)
    p = init_params(KIND_NN, "h", np.random.default_rng(4), smoothing=0.6)
    tuned, table = tune_smoothing(bare, p)
    assert tuned.smoothing == 0.0
    assert len(table) == len(SMOOTHING_GRID)
    assert len({f for _, f in table}) == 1


def test_tune_smoothing_returns_argmin(tiny):
    p = init_params(KIND_NN, "h", np.random.default_rng(5))
    tuned, table = tune_smoothing(tiny, p)
    best = min(table, key=lambda row: (row[1], row[0]))
    assert tuned.smoothing == best[0]
    kernel = SimKernel(tiny)
    assert table == [
        (beta, objective_std(kernel.run(make_controller(replace(p, smoothing=beta)))))
        for beta in SMOOTHING_GRID
    ]
    assert tuned.theta is not p.theta or np.array_equal(tuned.theta, p.theta)
