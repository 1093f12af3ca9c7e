"""Controller training: CMA-ES, windowed numerical gradient descent, and
output-smoothing calibration.

Both trainers treat the simulator as a black box mapping a flat parameter
vector to the post-warmup standard deviation of total grid load. Every
optimizer takes that objective as one batch callable, f_batch(list of
vectors) -> list of values: a CMA-ES generation, the gradient trainer's
perturbations of one point and its step-size probes are each one batch, and
so is the smoothing grid. `Evaluator` is the one place that scores a batch: it
cuts it into runs within MAX_BATCH_FLOATS, and the simulator steps each run's
candidates together in one loop, here or in a pool of worker processes.
CMA-ES is self-contained here; the gradient trainer estimates descent
directions by forward differences on short simulation windows and validates
candidate steps on the full training scenario.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .controllers import KIND_ESN, ControllerParams, make_controller
from .domain import Scenario
from .errors import ConfigError
from .features import feature_count
from .simulator import SimKernel, objective_std

STEP_SIZE_GRID = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5)
SMOOTHING_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)

DEFAULT_ITERATIONS = 250
DEFAULT_POPSIZE = 16
DEFAULT_SIGMA0 = 0.3
DEFAULT_EPSILON = 1e-4
DEFAULT_WINDOW_HOURS = 72
DEFAULT_OBJECTIVE_HOURS = 48

log = logging.getLogger("gridcharge")


@dataclass
class OptResult:
    """Outcome of one optimization run: the best point, its objective and the
    number of objective evaluations spent. The per-iteration progress goes to
    the trainer's `log_fn`."""

    x: np.ndarray
    fitness: float
    evaluations: int


# ---------------------------------------------------------------------------
# Objective evaluation, optionally fanned out over worker processes
# ---------------------------------------------------------------------------

# A batch objective: one value per parameter vector.
BatchObjective = Callable[[list[np.ndarray]], list[float]]

# Most floats of per-step state that one batch run may hold, counted per
# candidate x household row as a day of load history plus the controller's
# state (reservoir or hidden units) and features. An ESN row weighs about
# twice an NN row, so NN batches run wider. Not counted: each run's
# (candidates, households, steps) charging record, which grows with the
# run's length rather than with its per-step working set. Every run pays the
# step loop's per-call overhead once, so fewer, wider runs train faster.
# 80,000 floats (625 KiB, under a third of a 2 MiB per-core L2) was the knee
# of a perfbench sweep over 40k, 80k, 160k and no cap on a 2-core x86-64
# host: against 40k it cut train time by a quarter for nn on 74 households
# and by 7% for esn on 20; 160k gained at most 3% more, for 2 MiB more peak
# memory on the esn workload, and no cap 11 MiB more.
MAX_BATCH_FLOATS = 80_000

# (parameter vectors, smoothing weights or None for the template's, start
# step, end step, warmup steps) of one batch run; the vectors are a
# (candidates, parameters) array.
Run = tuple[np.ndarray, Sequence[float] | None, int, int | None, int | None]


def _candidates_per_run(scenario: Scenario, template: ControllerParams) -> int:
    """As many candidates of `template`'s family as one batch run on
    `scenario` may step within MAX_BATCH_FLOATS."""
    state = template.reservoir_size if template.kind == KIND_ESN else template.hidden_size
    row = scenario.timebase.steps_per_day + state + feature_count(template.input_mode)
    return max(1, MAX_BATCH_FLOATS // (scenario.n_households * row))


def _score_run(kernel: SimKernel, template: ControllerParams, run: Run) -> list[float]:
    """The objective of each candidate of one run, from one `SimKernel.run`."""
    thetas, smoothing, start, end, warmup = run
    controller = make_controller(template, thetas, smoothing)
    return objective_std(
        kernel.run(controller, start_step=start, end_step=end, warmup_steps=warmup)
    )


_WORKER_CTX: tuple[SimKernel, ControllerParams] | None = None


def _worker_init(scenario: Scenario, template: ControllerParams) -> None:
    global _WORKER_CTX
    _WORKER_CTX = (SimKernel(scenario), template)


def _worker_score(run: Run) -> list[float]:
    return _score_run(*_WORKER_CTX, run)


class Evaluator:
    """Batch objectives for one scenario and controller family.

    `map_full` scores parameter vectors on the whole scenario, `map_window`
    on a window of it. A batch is cut, in order, into runs of as many
    candidates as MAX_BATCH_FLOATS allows, and each run is simulated in one
    step loop. A batch of one run is simulated here. With `workers` > 1, the
    runs of a batch of several go to a pool of that many worker processes,
    one run per task; the pool starts with the first such batch. Either way
    every candidate scores exactly what its lone run would. Use as a context
    manager so the pool is torn down.
    """

    def __init__(self, scenario: Scenario, template: ControllerParams, *, workers: int = 1):
        self.template = template
        self._per_run = _candidates_per_run(scenario, template)
        self._workers = workers
        self._kernel = SimKernel(scenario)
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _map(self, thetas: Sequence[np.ndarray], smoothing: Sequence[float] | None,
             start: int, end: int | None, warmup: int | None) -> list[float]:
        """The objective on steps [start, end) of each candidate, given its
        theta and smoothing weight (default: the template's)."""
        thetas = np.asarray(thetas, dtype=float)
        n = self._per_run
        runs = [
            (thetas[i : i + n], None if smoothing is None else smoothing[i : i + n],
             start, end, warmup)
            for i in range(0, len(thetas), n)
        ]
        if len(runs) > 1 and self._workers > 1:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    initializer=_worker_init,
                    initargs=(self._kernel.scenario, self.template),
                )
            scored = self._pool.map(_worker_score, runs)
        else:
            scored = (_score_run(self._kernel, self.template, run) for run in runs)
        return [f for values in scored for f in values]

    def map_full(self, thetas: Sequence[np.ndarray]) -> list[float]:
        return self._map(thetas, None, 0, None, None)

    def map_window(
        self, thetas: Sequence[np.ndarray], start: int, window_steps: int, objective_steps: int
    ) -> list[float]:
        return self._map(
            thetas, None, start, start + window_steps, window_steps - objective_steps
        )


# ---------------------------------------------------------------------------
# CMA-ES
# ---------------------------------------------------------------------------


class CmaEs:
    """Covariance matrix adaptation evolution strategy, ask/tell style.

    Weighted recombination of the top half of each generation, cumulative
    step-size control, and rank-one plus rank-mu covariance updates. The
    covariance eigendecomposition is refreshed every generation, which is
    cheap at the dimensionalities used here.
    """

    def __init__(self, x0: np.ndarray, sigma0: float, *, popsize: int | None = None,
                 seed: int | None = None):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1 or x0.size < 1:
            raise ConfigError("x0 must be a non-empty 1-d vector")
        if not 0 < sigma0 < math.inf:
            raise ConfigError(f"sigma0 must be finite and > 0, got {sigma0}")
        n = x0.size
        self.n = n
        self.lam = popsize if popsize is not None else 4 + int(3 * math.log(n))
        if self.lam < 2:
            raise ConfigError(f"population size must be >= 2, got {self.lam}")
        mu = self.lam // 2
        w = np.log((self.lam + 1) / 2) - np.log(np.arange(1, mu + 1))
        self.weights = w / w.sum()
        self.mu = mu
        self.mueff = 1.0 / np.sum(self.weights**2)

        self.cc = (4 + self.mueff / n) / (n + 4 + 2 * self.mueff / n)
        self.cs = (self.mueff + 2) / (n + self.mueff + 5)
        self.c1 = 2 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1 - self.c1, 2 * (self.mueff - 2 + 1 / self.mueff) / ((n + 2) ** 2 + self.mueff)
        )
        self.damps = 1 + 2 * max(0.0, math.sqrt((self.mueff - 1) / (n + 1)) - 1) + self.cs
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

        self.rng = np.random.default_rng(seed)
        self.xmean = x0.copy()
        self.sigma = float(sigma0)
        self.cov = np.eye(n)
        self.path_c = np.zeros(n)
        self.path_s = np.zeros(n)
        self.generation = 0
        self.best_x = x0.copy()
        self.best_f = math.inf
        self._pending: np.ndarray | None = None

    def ask(self) -> np.ndarray:
        """Sample a (popsize, n) batch of candidate parameter vectors."""
        cov = (self.cov + self.cov.T) / 2.0
        eigvals, basis = np.linalg.eigh(cov)
        floor = max(eigvals.max(), 0.0) * 1e-14
        eigvals = np.clip(eigvals, max(floor, 1e-300), None)
        self._scale = np.sqrt(eigvals)
        self._basis = basis
        z = self.rng.standard_normal((self.lam, self.n))
        self._steps = (z * self._scale) @ basis.T
        self._pending = self.xmean + self.sigma * self._steps
        return self._pending

    def tell(self, candidates: np.ndarray, fitnesses: Sequence[float]) -> None:
        if self._pending is None or candidates.shape != (self.lam, self.n):
            raise ConfigError("tell() must follow ask() with the same candidate batch")
        fs = np.asarray(fitnesses, dtype=float)
        if fs.shape != (self.lam,):
            raise ConfigError(f"expected {self.lam} fitness values, got {fs.shape}")
        fs = np.where(np.isfinite(fs), fs, math.inf)

        order = np.argsort(fs, kind="stable")
        if fs[order[0]] < self.best_f:
            self.best_f = float(fs[order[0]])
            self.best_x = candidates[order[0]].copy()

        selected = self._steps[order[: self.mu]]
        mean_step = self.weights @ selected
        self.xmean = self.xmean + self.sigma * mean_step

        # Whitened mean step keeps the step-size path comparable across
        # covariance shapes.
        whitened = self._basis @ ((self._basis.T @ mean_step) / self._scale)
        cs, cc = self.cs, self.cc
        self.path_s = (1 - cs) * self.path_s + math.sqrt(
            cs * (2 - cs) * self.mueff
        ) * whitened
        self.generation += 1
        ps_norm = float(np.linalg.norm(self.path_s))
        hsig = ps_norm / math.sqrt(
            1 - (1 - cs) ** (2 * self.generation)
        ) / self.chi_n < 1.4 + 2 / (self.n + 1)
        self.path_c = (1 - cc) * self.path_c + (
            math.sqrt(cc * (2 - cc) * self.mueff) * mean_step if hsig else 0.0
        )

        c1a = self.c1 * (1 - (1 - float(hsig) ** 2) * cc * (2 - cc))
        rank_mu = (self.weights[:, None] * selected).T @ selected
        self.cov = (
            (1 - c1a - self.cmu) * self.cov
            + self.c1 * np.outer(self.path_c, self.path_c)
            + self.cmu * rank_mu
        )
        self.sigma *= math.exp(min(1.0, (cs / self.damps) * (ps_norm / self.chi_n - 1)))
        self._pending = None


def cmaes_minimize(
    f_batch: BatchObjective,
    x0: np.ndarray,
    *,
    sigma0: float = DEFAULT_SIGMA0,
    iterations: int = DEFAULT_ITERATIONS,
    popsize: int = DEFAULT_POPSIZE,
    seed: int | None = None,
    log_fn: Callable[[dict], None] | None = None,
) -> OptResult:
    """Run CMA-ES for a fixed number of generations, keeping the best ever.

    Each generation is scored in one `f_batch` call. The starting point is
    scored in the first call, ahead of the first generation (alone when
    `iterations` is 0); sampling a generation does not depend on its value.
    If that value is finite it seeds the strategy's best before the first
    generation is told, so a run can never return something worse than what
    it was given. After every generation `log_fn` gets the best objective so
    far, the step size and the evaluations spent.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    es = CmaEs(x0, sigma0, popsize=popsize, seed=seed)
    xs = es.ask() if iterations else ()
    f0, *values = f_batch([es.best_x, *xs])
    if math.isfinite(f0):
        es.best_f = float(f0)
    evaluations = 1
    for it in range(iterations):
        if it:
            xs = es.ask()
            values = f_batch(list(xs))
        es.tell(xs, values)
        evaluations += es.lam
        if log_fn is not None:
            log_fn(
                {
                    "iteration": it + 1,
                    "best_objective": es.best_f,
                    "sigma": es.sigma,
                    "evaluations": evaluations,
                }
            )
    return OptResult(x=es.best_x, fitness=es.best_f, evaluations=evaluations)


# ---------------------------------------------------------------------------
# Windowed numerical gradient descent
# ---------------------------------------------------------------------------


def finite_difference_gradient(
    f_batch: BatchObjective,
    x: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Forward-difference gradient of `f_batch` at `x`, from one batch of x
    and its `x.size` perturbations: row i + 1 is x with epsilon added to
    entry i."""
    points = np.tile(x, (x.size + 1, 1))
    np.fill_diagonal(points[1:], x + epsilon)
    values = np.asarray(f_batch(points), dtype=float)
    return (values[1:] - values[0]) / epsilon


def minimize_numgrad(
    eval_full: BatchObjective,
    make_window_eval: Callable[[], BatchObjective],
    x0: np.ndarray,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    epsilon: float = DEFAULT_EPSILON,
    log_fn: Callable[[dict], None] | None = None,
) -> OptResult:
    """Gradient descent with per-iteration step-size probing.

    Each iteration estimates a gradient on a freshly drawn evaluation window,
    tries every step size of STEP_SIZE_GRID on the full objective, takes the
    best one if it improves, and otherwise stays put. Rejected steps still
    count as an iteration; progress is monotone by construction.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    if not 0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    x = np.asarray(x0, dtype=float).copy()
    f_cur = float(eval_full([x])[0])
    evaluations = 1
    for it in range(iterations):
        window_eval = make_window_eval()
        grad = finite_difference_gradient(window_eval, x, epsilon)
        evaluations += x.size + 1
        chosen = None
        if np.any(grad != 0.0) and np.all(np.isfinite(grad)):
            candidates = [x - lam * grad for lam in STEP_SIZE_GRID]
            fs = np.asarray(eval_full(candidates), dtype=float)
            evaluations += len(candidates)
            k = int(np.argmin(fs))
            if fs[k] < f_cur:
                x = candidates[k]
                f_cur = float(fs[k])
                chosen = STEP_SIZE_GRID[k]
        if log_fn is not None:
            log_fn(
                {
                    "iteration": it + 1,
                    "best_objective": f_cur,
                    "step_size": chosen if chosen is not None else 0.0,
                    "evaluations": evaluations,
                }
            )
    return OptResult(x=x, fitness=f_cur, evaluations=evaluations)


# ---------------------------------------------------------------------------
# Scenario-level training entry points
# ---------------------------------------------------------------------------


def train_cma(
    scenario: Scenario,
    params0: ControllerParams,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    popsize: int = DEFAULT_POPSIZE,
    sigma0: float = DEFAULT_SIGMA0,
    seed: int | None = None,
    workers: int = 1,
    log_fn: Callable[[dict], None] | None = None,
) -> tuple[ControllerParams, OptResult]:
    with Evaluator(scenario, params0, workers=workers) as ev:
        result = cmaes_minimize(
            ev.map_full,
            params0.theta,
            sigma0=sigma0,
            iterations=iterations,
            popsize=popsize,
            seed=seed,
            log_fn=log_fn,
        )
    trained = replace(params0, theta=result.x, trained_with="cma")
    return trained, result


def window_steps_for(scenario: Scenario, window_hours: float, objective_hours: float) -> tuple[int, int]:
    """The numgrad evaluation window and its scored tail, in steps of
    `scenario`. A window longer than the scenario is clamped to it with a
    warning, and its scored part shrinks in proportion. Raises ConfigError
    unless both are finite and the window exceeds its scored part, which is
    at least one step."""
    if not (math.isfinite(window_hours) and math.isfinite(objective_hours)):
        raise ConfigError(
            f"evaluation window ({window_hours}h) and its scored part ({objective_hours}h) "
            f"must be finite"
        )
    tb = scenario.timebase
    scenario_hours = tb.n_steps * tb.step_hours
    if window_hours > scenario_hours:
        log.warning(
            "evaluation window of %.0fh exceeds the %.0fh training split; clamping",
            window_hours,
            scenario_hours,
        )
        objective_hours = scenario_hours * objective_hours / window_hours
        window_hours = scenario_hours
    window = int(round(window_hours * 3600 / tb.step_seconds))
    objective = int(round(objective_hours * 3600 / tb.step_seconds))
    if objective < 1 or window <= objective:
        raise ConfigError(
            f"evaluation window ({window_hours}h) must exceed its scored part "
            f"({objective_hours}h)"
        )
    return window, objective


def train_numgrad(
    scenario: Scenario,
    params0: ControllerParams,
    *,
    iterations: int = DEFAULT_ITERATIONS,
    epsilon: float = DEFAULT_EPSILON,
    window_hours: float = DEFAULT_WINDOW_HOURS,
    objective_hours: float = DEFAULT_OBJECTIVE_HOURS,
    seed: int | None = None,
    workers: int = 1,
    log_fn: Callable[[dict], None] | None = None,
) -> tuple[ControllerParams, OptResult]:
    window, objective = window_steps_for(scenario, window_hours, objective_hours)
    rng = np.random.default_rng(seed)
    tb = scenario.timebase
    with Evaluator(scenario, params0, workers=workers) as ev:

        def make_window_eval() -> BatchObjective:
            start = int(rng.integers(0, tb.n_steps - window + 1))
            return lambda thetas: ev.map_window(thetas, start, window, objective)

        result = minimize_numgrad(
            ev.map_full,
            make_window_eval,
            params0.theta,
            iterations=iterations,
            epsilon=epsilon,
            log_fn=log_fn,
        )
    trained = replace(params0, theta=result.x, trained_with="numgrad")
    return trained, result


def tune_smoothing(
    scenario: Scenario, params: ControllerParams
) -> tuple[ControllerParams, list[tuple[float, float]]]:
    """Pick the output smoothing weight of SMOOTHING_GRID by full simulations
    on `scenario`.

    Returns the re-tuned parameters and the (smoothing, objective) table.
    Ties go to the smaller weight.
    """
    grid = [float(beta) for beta in SMOOTHING_GRID]
    with Evaluator(scenario, params) as ev:
        values = ev._map([params.theta] * len(grid), grid, 0, None, None)
    table = list(zip(grid, values))
    best_beta = min(table, key=lambda row: (row[1], row[0]))[0]
    return replace(params, smoothing=best_beta), table
