"""Centralized optimum of the whole-horizon load-flatness problem, certified.

With every request's charging schedule chosen jointly and in hindsight, the
flattest total load solves a convex quadratic program: minimize the sum over
all steps of the squared total load, subject to each request's box
(0 <= speed <= its rate limit) and energy equality.

Each request's per-step bound is its rate limit or, if lower, its whole
energy as one step's speed (`required_kwh / step_hours`): no schedule that
meets the equality charges more than that in one step, so the feasible set
is the same, and the projection's stopping tolerance, a share of the row's
summed bounds, stays a share of the request's own energy even at a huge
rate limit.

Solver: accelerated projected gradient (FISTA; Beck & Teboulle, SIAM J.
Imaging Sci. 2009) with a step per time step, and a restart that drops the
momentum whenever the objective rises. With n_t the number of requests that
may charge at step t, cell (r, t) of the schedule takes the gradient step
eta_rt = 1 / (2 max(n_t, 1)). That step is valid: the objective's Hessian is
2 A^T A, where A sums each step's cells, and Cauchy-Schwarz gives
(sum over r of z_rt)^2 <= n_t * sum over r of z_rt^2, so 2 A^T A <=
diag(2 n_t) cell by cell. FISTA in the fixed metric diag(1 / eta) therefore
keeps its O(1/k^2) guarantee (a diagonal preconditioner; Pock & Chambolle,
ICCV 2011), and on the many steps where fewer requests are open than at the
busiest one, it moves much further than one scalar step 1 / (2 max_t n_t)
would. Each iteration makes one exact projection onto the per-request
constraint sets in that same metric (`project_capped_simplex`, weighted by
eta), warm-started from the previous iteration's shifts. The solver stops
once it has converged, or after MAX_ITERATIONS iterations.

Certificate: with g the gradient at the iterate x, the Frank-Wolfe duality
gap <g, x> - min over feasible s of <g, s> bounds f(x) - f* from above, by
convexity. It is a sum of one gap per request, <g_r, x_r> less the minimum
of a fractional knapsack that fills the request's cheapest steps up to its
rate limit. Each request's gap is at least 0 in exact arithmetic, because
x_r is feasible for its own knapsack; each is clamped at 0 against
rounding, so `duality_gap`, that sum at the returned schedule, is never
negative. No schedule meeting every request, and in particular no
controller's, has a whole-horizon sum of squares below the oracle's minus
`duality_gap`. `converged` means duality_gap <= REL_TOL * max(1, f(x)).
The gap does not depend on the solver's metric, so the certificate is the
same whatever the step.

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
MAX_ITERATIONS = 200_000  # the solver stops here, converged or not
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
    weight: np.ndarray,
    tau: np.ndarray,
) -> np.ndarray:
    """Row-wise projection onto {x : 0 <= x <= upper, sum(x) = target} in the
    metric diag(1 / weight): x minimizes sum((x - v)^2 / weight) there.

    The projection is x = clip(v - weight * tau, 0, upper) at the shift tau
    where the row sum meets target; the row sum is piecewise linear and
    non-increasing in tau. Each row runs a safeguarded Newton iteration on tau
    inside the bracket [min((v - upper) / weight), max(v / weight)]: the step
    tau + (sum - target) / (sum of the free entries' weights), or the
    bracket's midpoint when that step leaves the bracket or no entry is free.
    A row stops once its sum matches target to rounding; PROJECTION_ROUNDS
    caps the iterations.

    `weight` holds one positive weight per entry, padding included. `tau`
    holds one starting shift per row and is overwritten with the final
    shifts, so that a run of nearby projections can warm-start each other.
    Rows must be feasible (target <= sum(upper)).
    Padding columns with upper == 0 are pinned to zero; rows with target <= 0
    give zeros and rows with target >= sum(upper) give upper.
    """
    cap = upper.sum(axis=1)
    lo = ((v - upper) / weight).min(axis=1)
    hi = (v / weight).max(axis=1)
    shift = np.clip(tau, lo, hi, out=tau)
    empty = target <= 0.0
    full = ~empty & (target >= cap)
    shift[empty] = hi[empty]
    shift[full] = lo[full]

    rows = np.flatnonzero(~(empty | full))
    va, ua, wa, ta = v[rows], upper[rows], weight[rows], target[rows]
    lo, hi, sh = lo[rows], hi[rows], shift[rows]
    tol = ROW_SUM_RTOL * cap[rows]
    # Every round works on all rows in the same buffers; a row that has
    # converged keeps its shift, which is cheaper than compacting the arrays.
    d, clipped = np.empty_like(va), np.empty_like(va)
    free_mask, below_cap = np.empty(va.shape, bool), np.empty(va.shape, bool)
    live = np.ones(rows.size, bool)
    for _ in range(PROJECTION_ROUNDS):
        np.multiply(wa, sh[:, None], out=d)
        np.subtract(va, d, out=d)
        resid = np.clip(d, 0.0, ua, out=clipped).sum(axis=1) - ta
        live &= np.abs(resid) > tol
        if not live.any():
            break
        # A sum above target means the shift is too small.
        above = resid > 0.0
        lo = np.where(above, sh, lo)
        hi = np.where(above, hi, sh)
        # The row sum's slope in tau is minus the free entries' summed weight.
        np.greater(d, 0.0, out=free_mask)
        free_mask &= np.less(d, ua, out=below_cap)
        free = np.einsum("ij,ij->i", free_mask, wa)
        newton = sh + resid / np.where(free > 0.0, free, 1.0)
        inside = (free > 0.0) & (newton > lo) & (newton < hi)
        sh = np.where(live, np.where(inside, newton, 0.5 * (lo + hi)), sh)
    shift[rows] = sh

    x = np.multiply(weight, shift[:, None])
    np.subtract(v, x, out=x)
    np.clip(x, 0.0, upper, out=x)
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


def optimal_schedule(scenario: Scenario, *, warmup_steps: int | None = None) -> OracleResult:
    """Jointly optimal charging schedule for a whole scenario.

    Minimizes the sum of squared total loads over all steps; the reported
    spread (like every other result in the toolkit) is computed after
    warmup. Every CHECK_EVERY iterations the duality gap is computed, and
    the solver stops as converged once it is at most `REL_TOL * max(1, f)`.
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
        target[r] = req.required_energy / tb.step_hours  # sum of kW over steps
        upper[r, :k] = min(req.max_kw, target[r])
        step_of[r, :k] = np.arange(req.t_arrive, req.t_depart)
    cells = step_of.ravel()

    def by_step(values: np.ndarray) -> np.ndarray:
        return np.bincount(cells, weights=values.ravel(), minlength=n_steps + 1)[:n_steps]

    def gradient(load: np.ndarray) -> np.ndarray:
        return 2.0 * np.append(load, 0.0)[step_of]

    # One gradient step per time step, 1 / (2 max(n_t, 1)) with n_t the
    # number of requests that may charge at t (see the module docstring).
    # The scratch slot counts 0 and so gives padding cells a positive step,
    # which the projection's weighted bracket divides by.
    overlap = np.bincount(cells, weights=(upper > 0).ravel(), minlength=n_steps + 1)
    eta = (1.0 / (2.0 * np.maximum(overlap, 1.0)))[step_of]

    # Start: every request at its flat rate, which is always feasible.
    x = np.where(upper > 0, (target / np.maximum(lengths, 1))[:, None], 0.0)
    x = np.minimum(x, upper)
    load = base_total + by_step(x)
    f = float(np.dot(load, load))

    def duality_gap() -> float:
        g = gradient(load)
        per_request = (g * x).sum(axis=1) - _knapsack_minimum(g, upper, target)
        return float(np.maximum(per_request, 0.0).sum())

    # FISTA with function-value restart: y is the extrapolated point and
    # y_load = base_total + by_step(y), kept by linearity.
    y, y_load, t = x, load, 1.0
    tau = np.zeros(n_req)
    iterations = 0
    gap = duality_gap()
    converged = gap <= REL_TOL * max(1.0, f)
    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        x_new = project_capped_simplex(
            y - eta * gradient(y_load), upper, target, weight=eta, tau=tau
        )
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
        if iterations % CHECK_EVERY == 0 or iterations == MAX_ITERATIONS:
            gap = duality_gap()
            converged = gap <= REL_TOL * max(1.0, f)

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
