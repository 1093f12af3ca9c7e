from dataclasses import replace
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge import oracle as oracle_module
from gridcharge.controllers import BASELINE_KINDS, KIND_CONST, KIND_MAX, KIND_MIN, make_controller
from gridcharge.data import split_scenario, synth_scenario
from gridcharge.domain import ChargingRequest, Scenario, Timebase
from gridcharge.errors import SimulationError
from gridcharge.oracle import OracleResult, optimal_schedule, project_capped_simplex
from gridcharge.simulator import SimKernel, no_charge_result, objective_std

MONDAY = datetime(2026, 3, 2)


def scenario_of(baseline, requests=(), timebase=None):
    """Households h0, h1, ... with the given baseline rows, on `timebase`
    (default: one that starts on MONDAY and fits the rows)."""
    baseline = np.atleast_2d(np.asarray(baseline, dtype=float))
    tb = timebase or Timebase(start=MONDAY, n_steps=baseline.shape[1])
    return Scenario(tb, tuple(f"h{i}" for i in range(len(baseline))), baseline, tuple(requests))


def euclidean_projection(v, upper, target):
    """The projection with every weight 1, started from a zero shift."""
    return project_capped_simplex(v, upper, target, weight=np.ones_like(v), tau=np.zeros(len(v)))


def test_projection_splits_evenly_without_caps():
    x = euclidean_projection(
        np.array([[0.0, 0.0]]), np.array([[10.0, 10.0]]), np.array([5.0])
    )
    assert np.allclose(x, [[2.5, 2.5]], atol=1e-12)


def test_projection_respects_caps():
    x = euclidean_projection(
        np.array([[10.0, 0.0]]), np.array([[3.0, 10.0]]), np.array([5.0])
    )
    assert np.allclose(x, [[3.0, 2.0]], atol=1e-9)


def test_projection_zero_target_gives_zeros():
    x = euclidean_projection(
        np.array([[4.0, 4.0]]), np.array([[5.0, 5.0]]), np.array([0.0])
    )
    assert np.array_equal(x, [[0.0, 0.0]])


def test_projection_is_idempotent():
    rng = np.random.default_rng(0)
    v = rng.normal(0, 3, (5, 8))
    upper = rng.uniform(0.5, 4.0, (5, 8))
    target = 0.6 * upper.sum(axis=1)
    once = euclidean_projection(v, upper, target)
    twice = euclidean_projection(once, upper, target)
    assert np.allclose(once, twice, atol=1e-10)
    assert np.allclose(once.sum(axis=1), target, atol=1e-10)
    assert np.all(once >= 0) and np.all(once <= upper + 1e-12)


def test_projection_ignores_padding_columns():
    # upper == 0 marks padding; it must stay zero and not absorb energy
    v = np.array([[2.0, 2.0, 9.0]])
    upper = np.array([[5.0, 5.0, 0.0]])
    x = euclidean_projection(v, upper, np.array([4.0]))
    assert x[0, 2] == 0.0
    assert x[0].sum() == pytest.approx(4.0, abs=1e-10)


def reference_projection(v, upper, target, weight, rounds=200):
    """Plain bisection on the shift of x = clip(v - weight * shift, 0, upper),
    run far past rounding."""
    lo = ((v - upper) / weight).min(axis=1)
    hi = (v / weight).max(axis=1)
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        too_big = np.clip(v - weight * mid[:, None], 0.0, upper).sum(axis=1) > target
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    return np.clip(v - weight * hi[:, None], 0.0, upper)


@st.composite
def projection_problems(draw):
    """Random rows with padding columns, zero targets and full-capacity rows,
    and positive per-cell weights: all 1, the oracle's 1 / (2 n) steps, or
    spread over three orders of magnitude."""
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([0.01, 1.0, 30.0, 1000.0]))
    weights = draw(st.sampled_from(["unit", "steps", "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(0.0, scale, (rows, width))
    upper = rng.uniform(0.1, 8.0, (rows, width)) * (rng.random((rows, width)) > 0.3)
    share = rng.uniform(0.0, 1.0, rows)
    kind = rng.integers(0, 4, rows)
    share[kind == 0] = 0.0
    share[kind == 1] = 1.0
    if weights == "unit":
        weight = np.ones((rows, width))
    elif weights == "steps":
        weight = 1.0 / (2.0 * rng.integers(1, 80, (rows, width)))
    else:
        weight = 10.0 ** rng.uniform(-2.0, 1.0, (rows, width))
    return v, upper, share * upper.sum(axis=1), weight


@settings(max_examples=200, deadline=None)
@given(projection_problems())
def test_projection_matches_bisection_reference(problem):
    v, upper, target, weight = problem
    x = project_capped_simplex(v, upper, target, weight=weight, tau=np.zeros(len(v)))
    tol = 1e-9 * max(1.0, float(upper.sum(axis=1).max()))
    assert np.allclose(x, reference_projection(v, upper, target, weight), rtol=0.0, atol=tol)
    assert np.allclose(x.sum(axis=1), target, rtol=0.0, atol=tol)
    assert np.all(x >= 0.0) and np.all(x <= upper)
    assert np.all(x[upper == 0.0] == 0.0)
    assert np.all(x[target == 0.0] == 0.0)
    full = target == upper.sum(axis=1)
    assert np.array_equal(x[full], upper[full])


@settings(max_examples=200, deadline=None)
@given(projection_problems(), st.integers(0, 2**32 - 1))
def test_projection_warm_start_matches_cold_start(problem, seed):
    v, upper, target, weight = problem
    cold = project_capped_simplex(v, upper, target, weight=weight, tau=np.zeros(len(v)))
    tau = np.random.default_rng(seed).normal(0.0, 1e3, v.shape[0])
    warm = project_capped_simplex(v, upper, target, weight=weight, tau=tau)
    tol = 1e-9 * max(1.0, float(upper.sum(axis=1).max()))
    assert np.allclose(warm, cold, rtol=0.0, atol=tol)
    # tau now holds the final shifts, and restarting from them changes nothing
    again = project_capped_simplex(v, upper, target, weight=weight, tau=tau)
    assert np.allclose(again, warm, rtol=0.0, atol=tol)


def test_projection_runs_once_per_iteration(monkeypatch):
    calls = []
    original = oracle_module.project_capped_simplex

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "project_capped_simplex", counting)
    sc, _, _ = synth_scenario(n_households=4, split_days=(2, 1, 1), seed=17)
    res = optimal_schedule(sc)
    assert res.iterations > 0
    assert len(calls) == res.iterations


def test_oracle_converges_within_40_iterations_on_a_week_of_20_households():
    """The per-step gradient step: one scalar step set by the busiest step of
    the split took 110 iterations here. Iteration counts are deterministic."""
    sc, splits, _ = synth_scenario(n_households=20, split_days=(7, 2, 3), seed=11)
    res = optimal_schedule(split_scenario(sc, splits, "train"))
    assert res.converged
    assert res.iterations <= 40


def test_duality_gap_is_not_negative_on_the_tune_split_of_20_households():
    """Summed over all requests at once, the gap on this split rounded to
    -2.5e-8 kW^2, which put the certified bound above the objective. Each
    request's gap is at least 0 in exact arithmetic, and is clamped there."""
    sc, splits, _ = synth_scenario(n_households=20, split_days=(7, 2, 3), seed=11)
    res = optimal_schedule(split_scenario(sc, splits, "tune"))
    assert res.converged
    assert res.duality_gap >= 0.0


def test_two_step_toy_solved_exactly():
    """One request, 2.5 kWh, into base loads [0, 10]: all charging belongs in
    the first step at 10 kW, flattening the total to [10, 10]."""
    sc = scenario_of([0.0, 10.0], (ChargingRequest("h0", 0, 2, 2.5, 10.0),))
    res = optimal_schedule(sc, warmup_steps=0)
    assert np.allclose(res.result.per_household_charging, [[10.0, 0.0]], atol=1e-6)
    assert objective_std(res.result) == pytest.approx(0.0, abs=1e-6)
    assert res.converged
    assert np.allclose(res.result.grid_load, [10.0, 10.0], atol=1e-6)


def test_oracle_lower_bounds_every_baseline():
    sc, _, _ = synth_scenario(n_households=4, split_days=(2, 1, 1), seed=17)
    oracle = optimal_schedule(sc)
    for kind in (KIND_CONST, KIND_MIN, KIND_MAX):
        std = objective_std(SimKernel(sc).run(make_controller(kind)))
        assert objective_std(oracle.result) <= std + 1e-9


def test_oracle_schedule_is_feasible():
    sc, _, _ = synth_scenario(n_households=4, split_days=(2, 1, 1), seed=17)
    res = optimal_schedule(sc)
    dh = sc.timebase.step_hours
    covered = np.zeros((sc.n_households, sc.timebase.n_steps), dtype=bool)
    for r in sc.requests:
        hi = sc.household_ids.index(r.household_id)
        window = res.result.per_household_charging[hi, r.t_arrive : r.t_depart]
        covered[hi, r.t_arrive : r.t_depart] = True
        assert np.all(window <= r.max_kw + 1e-9)
        assert np.all(window >= -1e-12)
        assert window.sum() * dh == pytest.approx(r.required_energy, abs=1e-6)
    assert np.all(res.result.per_household_charging[~covered] == 0.0)


@pytest.mark.parametrize("max_kw", [1e9, 1e12, 1e15])
def test_oracle_meets_every_energy_at_a_huge_rate_limit(max_kw):
    sc, _, _ = synth_scenario(n_households=2, seed=7)
    first = replace(sc.requests[0], max_kw=max_kw)
    sc = Scenario(sc.timebase, sc.household_ids, sc.baseline, (first, *sc.requests[1:]))
    res = optimal_schedule(sc)
    window = res.result.per_household_charging[sc.request_rows[0], first.t_arrive:first.t_depart]
    assert window.sum() * sc.timebase.step_hours == pytest.approx(first.required_energy, abs=1e-6)
    assert res.converged


def test_oracle_result_consistent_with_its_simulation():
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=8)
    res = optimal_schedule(sc)
    base = sc.baseline.sum(axis=0)
    assert np.allclose(res.result.grid_load, base + res.result.per_household_charging.sum(axis=0))
    assert res.result.warmup_steps == sc.timebase.steps_per_day


def test_oracle_without_requests_returns_baseline():
    sc = scenario_of([1.0, 2.0, 3.0, 4.0])
    res = optimal_schedule(sc, warmup_steps=0)
    assert isinstance(res, OracleResult)
    assert np.array_equal(res.result.per_household_charging, np.zeros((1, 4)))
    assert objective_std(res.result) == pytest.approx(float(np.std([1.0, 2.0, 3.0, 4.0])))
    assert res.converged
    assert res.iterations == 0
    assert res.duality_gap == 0.0
    assert np.array_equal(res.result.grid_load, no_charge_result(sc).grid_load)
    assert optimal_schedule(sc, warmup_steps=3).result.warmup_steps == 3


@pytest.mark.parametrize("warmup", [-3, 4])
def test_oracle_rejects_a_warmup_that_is_negative_or_leaves_nothing(warmup):
    sc = scenario_of(np.full(4, 1.0), (ChargingRequest("h0", 0, 4, 1.0, 4.0),))
    with pytest.raises(SimulationError, match=f"warmup of {warmup} steps"):
        optimal_schedule(sc, warmup_steps=warmup)


def test_oracle_beats_const_when_deferral_helps():
    # base has a peak in the request window; const charges through it, the
    # oracle shifts energy into the quiet half
    base = np.array([1.0, 1.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0])
    sc = scenario_of(base, (ChargingRequest("h0", 0, 8, 4.0, 6.0),))
    oracle = optimal_schedule(sc, warmup_steps=0)
    const = objective_std(SimKernel(sc).run(make_controller(KIND_CONST), warmup_steps=0))
    assert objective_std(oracle.result) < const - 0.1
    # no charging lands on the two peak steps
    assert np.allclose(oracle.result.per_household_charging[0, 2:4], 0.0, atol=1e-6)


def random_scenario(n_households, days, step_seconds, seed):
    """Random baselines and charging windows; about a quarter of the requests
    need exactly their full capacity."""
    rng = np.random.default_rng(seed)
    tb = Timebase(start=MONDAY, n_steps=days * 86400 // step_seconds, step_seconds=step_seconds)
    spd = tb.steps_per_day
    baselines, requests = [], []
    for h in range(n_households):
        hid = f"h{h}"
        t = int(rng.integers(0, spd))
        while t < tb.n_steps:
            depart = min(t + int(rng.integers(1, spd)), tb.n_steps)
            max_kw = float(rng.uniform(2.0, 8.0))
            capacity = max_kw * (depart - t) * tb.step_hours
            energy = capacity if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0)) * capacity
            requests.append(ChargingRequest(hid, t, depart, energy, max_kw))
            t = depart + int(rng.integers(0, spd))
        baselines.append(rng.uniform(0.1, 3.0, tb.n_steps))
    return scenario_of(baselines, requests, tb)


@settings(max_examples=40, deadline=None)
@given(
    n_households=st.integers(1, 4),
    days=st.integers(2, 3),
    step_seconds=st.sampled_from([900, 1800, 3600]),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_certificate_lower_bounds_every_baseline(n_households, days, step_seconds, seed):
    """Weak duality: the whole-horizon sum of squares less the duality gap is
    at most any feasible schedule's: every baseline's, and that of a longer
    solver run with the stop disabled (a negative tolerance), which lies
    nearer the optimum. The slack covers the simulator's 1e-9 kWh finishing
    tolerance. The gap itself is never negative."""
    sc = random_scenario(n_households, days, step_seconds, seed)
    oracle = optimal_schedule(sc, warmup_steps=0)
    assert oracle.converged
    assert oracle.duality_gap >= 0.0
    load = oracle.result.grid_load
    bound = float(load @ load) - oracle.duality_gap
    loads = {
        kind: SimKernel(sc).run(make_controller(kind), warmup_steps=0).grid_load
        for kind in BASELINE_KINDS
    }
    with mock.patch.object(oracle_module, "REL_TOL", -1.0), \
            mock.patch.object(oracle_module, "MAX_ITERATIONS", 300):
        longer = optimal_schedule(sc, warmup_steps=0)
    assert longer.iterations == 300
    loads["300 iterations"] = longer.result.grid_load
    for name, other in loads.items():
        sum_sq = float(other @ other)
        assert bound <= sum_sq + 1e-9 * max(1.0, sum_sq), name
