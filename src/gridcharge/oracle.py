"""Centralized optimum of the whole-horizon load-flatness problem, certified.

With every request's charging schedule chosen jointly and in hindsight, the
flattest total load solves a convex quadratic program: minimize the sum over
all steps of the squared total load, subject to each request's box
(0 <= speed <= its rate limit) and energy equality.

Solver: accelerated projected gradient (FISTA; Beck & Teboulle, SIAM J.
Imaging Sci. 2009) with the exact step 1 / L, where L is twice the largest
number of requests sharing one step, and a restart that drops the momentum
whenever the objective rises. Each iteration makes one exact projection onto
the per-request constraint sets (`project_capped_simplex`), warm-started
from the previous iteration's shifts.

Certificate: with g the gradient at the iterate x, the Frank-Wolfe duality
gap <g, x> - min over feasible s of <g, s> bounds f(x) - f* from above, by
convexity; each request's minimum is a fractional knapsack that fills its
cheapest steps up to its rate limit. `duality_gap` is that gap at the
returned schedule, so no schedule meeting every request, and in particular
no controller's, has a whole-horizon sum of squares below the oracle's minus
`duality_gap`. `converged` means duality_gap <= rel_tol * max(1, f(x)).

What is certified is the whole-horizon sum of squares, not the post-warmup
spread `objective_std(result)` that is reported like every other result: the
minimizer of the one need not minimize the other, and on short splits a
causal controller can score below the oracle's spread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import ENERGY_TOL_KWH, Scenario, SimResult
from .errors import SimulationError
from .simulator import no_charge_result, resolve_warmup

REL_TOL = 1e-9  # converged: duality gap at most REL_TOL * max(1, objective)
ROW_SUM_RTOL = 1e-12  # a projected row matches its target to this share of its cap
CHECK_EVERY = 10  # iterations between duality-gap checks
PROJECTION_ROUNDS = 60  # cap on a projection's Newton/bisection iterations per row


@dataclass(frozen=True)
class OracleResult:
    """Optimal joint schedule and its certificate. The schedule, in kW, is
    `result.per_household_charging`."""

    result: SimResult
    converged: bool
    iterations: int
    # Upper bound on (sum of squared total load) - (its minimum), in kW^2.
    duality_gap: float


def project_capped_simplex(
    v: np.ndarray,
    upper: np.ndarray,
    target: np.ndarray,
    *,
    tau: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise Euclidean projection onto {x : 0 <= x <= upper, sum(x) = target}.

    The projection is x = clip(v - tau, 0, upper) at the shift tau where the
    row sum meets target; the row sum is piecewise linear and non-increasing
    in tau. Each row runs a safeguarded Newton iteration on tau inside the
    bracket [min(v - upper), max(v)]: the step tau + (sum - target) / #free,
    or the bracket's midpoint when that step leaves the bracket or no entry
    is free. A row stops once its sum matches target to rounding;
    PROJECTION_ROUNDS caps the iterations.

    `tau`, when given, holds one starting shift per row and is overwritten
    with the final shifts, so that a run of nearby projections can warm-start
    each other. Rows must be feasible (target <= sum(upper)). Padding columns
    with upper == 0 are pinned to zero; rows with target <= 0 give zeros and
    rows with target >= sum(upper) give upper.
    """
    cap = upper.sum(axis=1)
    lo = (v - upper).min(axis=1)
    hi = v.max(axis=1)
    shift = 0.5 * (lo + hi) if tau is None else np.clip(tau, lo, hi)
    empty = target <= 0.0
    full = ~empty & (target >= cap)
    shift[empty] = hi[empty]
    shift[full] = lo[full]

    rows = np.flatnonzero(~(empty | full))
    va, ua, ta, lo, hi, sh = v[rows], upper[rows], target[rows], lo[rows], hi[rows], shift[rows]
    tol = ROW_SUM_RTOL * cap[rows]
    for _ in range(PROJECTION_ROUNDS):
        if rows.size == 0:
            break
        d = va - sh[:, None]
        resid = np.clip(d, 0.0, ua).sum(axis=1) - ta
        shift[rows] = sh
        live = np.abs(resid) > tol
        if not live.all():
            rows, va, ua, ta, lo, hi, sh, tol, resid, d = (
                a[live] for a in (rows, va, ua, ta, lo, hi, sh, tol, resid, d)
            )
        # A sum above target means the shift is too small.
        above = resid > 0.0
        lo = np.where(above, sh, lo)
        hi = np.where(above, hi, sh)
        free = ((d > 0.0) & (d < ua)).sum(axis=1)
        newton = sh + resid / np.maximum(free, 1)
        inside = (free > 0) & (newton > lo) & (newton < hi)
        sh = np.where(inside, newton, 0.5 * (lo + hi))
    shift[rows] = sh

    if tau is not None:
        tau[:] = shift
    x = np.clip(v - shift[:, None], 0.0, upper)
    x[empty] = 0.0
    x[full] = upper[full]
    return x


def _knapsack_minimum(g: np.ndarray, upper: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, min <g, s> over {s : 0 <= s <= upper, sum(s) = target}.

    A fractional knapsack: fill the cheapest entries up to their caps until
    the row holds target. Padding columns (upper == 0) take nothing.
    """
    order = np.argsort(g, axis=1, kind="stable")
    g_sorted = np.take_along_axis(g, order, axis=1)
    u_sorted = np.take_along_axis(upper, order, axis=1)
    before = np.cumsum(u_sorted, axis=1) - u_sorted
    fill = np.clip(target[:, None] - before, 0.0, u_sorted)
    return (g_sorted * fill).sum(axis=1)


def optimal_schedule(
    scenario: Scenario,
    *,
    warmup_steps: int | None = None,
    max_iterations: int = 200_000,
    rel_tol: float = REL_TOL,
) -> OracleResult:
    """Jointly optimal charging schedule for a whole scenario.

    Minimizes the sum of squared total loads over all steps; the reported
    spread (like every other result in the toolkit) is computed after
    warmup. Every CHECK_EVERY iterations the duality gap is computed, and
    the solver stops as converged once it is at most `rel_tol * max(1, f)`.
    A negative warmup, or one that leaves no step, raises SimulationError.
    """
    tb = scenario.timebase
    n_steps = tb.n_steps
    warmup_steps = resolve_warmup(tb, warmup_steps)
    requests = scenario.requests
    if not requests:
        result = replace(no_charge_result(scenario), warmup_steps=warmup_steps)
        return OracleResult(result=result, converged=True, iterations=0, duality_gap=0.0)

    base_total = scenario.baseline.sum(axis=0)
    n_req = len(requests)
    n_house = scenario.n_households

    lengths = np.array([r.total_steps for r in requests])
    width = int(lengths.max())
    upper = np.zeros((n_req, width))
    # Padding cells carry step index n_steps: a scratch slot that never feeds
    # back into the real load.
    step_of = np.full((n_req, width), n_steps, dtype=np.int64)
    target = np.empty(n_req)
    for r, req in enumerate(requests):
        k = req.total_steps
        upper[r, :k] = req.max_kw
        step_of[r, :k] = np.arange(req.t_arrive, req.t_depart)
        target[r] = req.required_energy / tb.step_hours  # sum of kW over steps
    cells = step_of.ravel()

    def by_step(values: np.ndarray) -> np.ndarray:
        return np.bincount(cells, weights=values.ravel(), minlength=n_steps + 1)[:n_steps]

    def gradient(load: np.ndarray) -> np.ndarray:
        return 2.0 * np.append(load, 0.0)[step_of]

    # Exact Lipschitz constant of the gradient: twice the largest number of
    # requests sharing one step.
    max_overlap = max(float(by_step((upper > 0).astype(float)).max()), 1.0)
    eta = 1.0 / (2.0 * max_overlap)

    # Start: every request at its flat rate, which is always feasible.
    x = np.where(upper > 0, (target / np.maximum(lengths, 1))[:, None], 0.0)
    x = np.minimum(x, upper)
    load = base_total + by_step(x)
    f = float(np.dot(load, load))

    def duality_gap() -> float:
        g = gradient(load)
        return float(np.sum(g * x) - _knapsack_minimum(g, upper, target).sum())

    # FISTA with function-value restart: y is the extrapolated point and
    # y_load = base_total + by_step(y), kept by linearity.
    y, y_load, t = x, load, 1.0
    tau = np.zeros(n_req)
    iterations = 0
    gap = duality_gap()
    converged = gap <= rel_tol * max(1.0, f)
    while not converged and iterations < max_iterations:
        iterations += 1
        x_new = project_capped_simplex(y - eta * gradient(y_load), upper, target, tau=tau)
        load_new = base_total + by_step(x_new)
        f_new = float(np.dot(load_new, load_new))
        if f_new > f:
            t_next, beta = 1.0, 0.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
        y = x_new + beta * (x_new - x)
        y_load = load_new + beta * (load_new - load)
        x, load, f, t = x_new, load_new, f_new, t_next
        if iterations % CHECK_EVERY == 0 or iterations == max_iterations:
            gap = duality_gap()
            converged = gap <= rel_tol * max(1.0, f)

    delivered = x.sum(axis=1) * tb.step_hours
    worst = float(np.max(np.abs(delivered - np.array([r.required_energy for r in requests]))))
    if worst > ENERGY_TOL_KWH:
        raise SimulationError(
            f"optimal schedule violates an energy equality by {worst:.3e} kWh"
        )

    schedule = np.zeros((n_house, n_steps))
    for r, req in enumerate(requests):
        k = req.total_steps
        schedule[scenario.request_rows[r], req.t_arrive : req.t_depart] += x[r, :k]

    result = SimResult(
        timebase=tb,
        grid_load=base_total + schedule.sum(axis=0),
        per_household_charging=schedule,
        warmup_steps=warmup_steps,
    )
    return OracleResult(result=result, converged=converged, iterations=iterations, duality_gap=gap)
