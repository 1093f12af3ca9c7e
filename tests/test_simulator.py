import csv
import json
from dataclasses import replace
from datetime import datetime
import numpy as np
import pytest

from gridcharge.controllers import (
    KIND_CONST,
    KIND_ESN,
    KIND_MAX,
    KIND_MIN,
    KIND_NN,
    init_params,
    make_controller,
)
from gridcharge.data import synth_scenario
from gridcharge.domain import (
    ChargingRequest,
    Scenario,
    SimResult,
    Timebase,
)
from gridcharge.errors import SimulationError, SimulationIncomplete
from gridcharge.features import RollingBuffer
from gridcharge.simulator import (
    SimKernel,
    load_changes,
    objective_std,
    resolve_warmup,
    result_metrics,
    write_changes_csv,
    write_loads_out_csv,
    write_metrics_json,
)

MONDAY = datetime(2026, 3, 2)


def scenario_of(baseline, requests=()):
    """Households h0, h1, ... with the given baseline rows, from MONDAY."""
    baseline = np.atleast_2d(np.asarray(baseline, dtype=float))
    tb = Timebase(start=MONDAY, n_steps=baseline.shape[1])
    return Scenario(tb, tuple(f"h{i}" for i in range(len(baseline))), baseline, tuple(requests))


def one_request_scenario(request, n_steps=8, base_kw=0.5):
    return scenario_of(np.full(n_steps, base_kw), (request,))


class Recorder:
    """Stand-in controller that copies its feature matrix every step and then
    charges at full speed so every request completes."""

    candidates = None

    def __init__(self, input_mode):
        self.input_mode = input_mode
        self.frames = []

    def reset(self, n_households):
        self.frames = []

    def step(self, x, req):
        self.frames.append(x.copy())
        return req.max_kw * req.active


class NanController:
    input_mode = None
    candidates = None

    def reset(self, n_households):
        pass

    def step(self, x, req):
        return np.full(len(req.active), np.nan)


class EveryStep:
    """Test-only wrapper that forwards a controller's contract but does not
    declare `idle_is_reset`, so the simulator steps it at every step."""

    def __init__(self, inner):
        self.inner = inner
        self.input_mode = inner.input_mode
        self.candidates = inner.candidates

    def reset(self, n_households):
        self.inner.reset(n_households)

    def step(self, x, req):
        return self.inner.step(x, req)


def test_default_warmup_is_one_day_when_affordable():
    tb = Timebase(start=MONDAY, n_steps=4 * 96)
    assert resolve_warmup(tb, None) == 96
    assert resolve_warmup(tb, None, n_steps=96) == 0
    assert resolve_warmup(Timebase(start=MONDAY, n_steps=8), None) == 0


def test_max_charge_delivery_sequence():
    sc = one_request_scenario(
        ChargingRequest("h0", t_arrive=0, t_depart=4, required_energy=5.0, max_kw=8.0)
    )
    res = SimKernel(sc).run(make_controller(KIND_MAX), warmup_steps=0)
    assert np.allclose(res.per_household_charging[0], [8.0, 8.0, 4.0, 0.0, 0, 0, 0, 0])
    assert np.allclose(res.grid_load, 0.5 + res.per_household_charging[0])


@pytest.mark.parametrize(
    "max_kw,expected",
    [
        (8.0, [0.0, 0.0, 0.0, 8.0]),
        (2.0, [2.0, 2.0, 2.0, 2.0]),
    ],
)
def test_min_charge_delivery_sequence(max_kw, expected):
    sc = one_request_scenario(
        ChargingRequest("h0", t_arrive=0, t_depart=4, required_energy=2.0, max_kw=max_kw),
        n_steps=4,
    )
    res = SimKernel(sc).run(make_controller(KIND_MIN), warmup_steps=0)
    assert np.allclose(res.per_household_charging[0], expected)


def test_const_charge_is_flat_and_exact():
    sc = one_request_scenario(
        ChargingRequest("h0", t_arrive=2, t_depart=22, required_energy=5.0, max_kw=8.0),
        n_steps=24,
    )
    res = SimKernel(sc).run(make_controller(KIND_CONST), warmup_steps=0)
    charged = res.per_household_charging[0]
    assert np.allclose(charged[2:22], 1.0)
    assert np.allclose(charged[:2], 0.0) and np.allclose(charged[22:], 0.0)
    assert charged.sum() * 0.25 == pytest.approx(5.0, abs=1e-9)


def test_back_to_back_requests_hand_over_cleanly():
    first = ChargingRequest("h0", 0, 4, 3.0, 8.0)
    second = ChargingRequest("h0", 4, 8, 2.0, 8.0)
    sc = scenario_of(np.zeros(8), (first, second))
    res = SimKernel(sc).run(make_controller(KIND_MAX), warmup_steps=0)
    assert res.per_household_charging.sum() * 0.25 == pytest.approx(5.0, abs=1e-9)


def test_baselines_conserve_energy_on_synthetic_data():
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=5)
    want = sum(r.required_energy for r in sc.requests)
    for kind in (KIND_MAX, KIND_MIN, KIND_CONST):
        res = SimKernel(sc).run(make_controller(kind))
        got = res.per_household_charging.sum() * sc.timebase.step_hours
        assert got == pytest.approx(want, abs=1e-6)
        base = sc.baseline.sum(axis=0)
        assert np.allclose(res.grid_load, base + res.per_household_charging.sum(axis=0))


def test_do_nothing_controller_fails_feasibility():
    class Lazy:
        input_mode = None
        candidates = None

        def reset(self, n):
            pass

        def step(self, x, req):
            return np.zeros(len(req.active))

    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 5.0, 8.0))
    with pytest.raises(SimulationIncomplete, match="h0"):
        SimKernel(sc).run(Lazy(), warmup_steps=0)


class Schedule:
    """Stand-in controller that charges `kw` at the steps where `pick(rem_steps)`
    holds and nothing otherwise."""

    input_mode = None
    candidates = None

    def __init__(self, pick, kw):
        self.pick = pick
        self.kw = kw

    def reset(self, n):
        pass

    def step(self, x, req):
        return np.where(self.pick(req.remaining_steps), self.kw, 0.0) * req.active


def test_skipping_a_step_of_a_tight_request_is_infeasible():
    # 2 kWh at 2 kW over four quarter hours leaves no slack at all.
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 2.0, 2.0))
    late = Schedule(lambda rem_steps: rem_steps < 4, 2.0)
    with pytest.raises(SimulationIncomplete, match="h0 cannot finish its request from step 1"):
        SimKernel(sc).run(late, warmup_steps=0)


def test_departure_audit_flags_energy_still_owed():
    # Feasible until the last step, where 1 kW delivers only 0.25 of 1 kWh.
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 1.0, 8.0))
    last_minute = Schedule(lambda rem_steps: rem_steps == 1, 1.0)
    with pytest.raises(SimulationIncomplete, match="departing at step 4"):
        SimKernel(sc).run(last_minute, warmup_steps=0)


class StateRecorder(Schedule):
    """A Schedule that also copies each step's energy owed and active flags."""

    def reset(self, n):
        self.owed, self.active = [], []

    def step(self, x, req):
        self.owed.append(req.remaining_kwh.copy())
        self.active.append(req.active.copy())
        return super().step(x, req)


def test_request_state_is_zero_where_no_request_is_open():
    # One step at 4 kW less 2e-6 leaves 5e-7 of h0's 1 kWh owed, within the
    # departure audit's tolerance; from the departure at step 4 on, h0 owes
    # nothing.
    sc = one_request_scenario(ChargingRequest("h0", 1, 4, 1.0, 8.0))
    recorder = StateRecorder(lambda rem_steps: rem_steps == 3, (1.0 - 5e-7) / 0.25)
    SimKernel(sc).run(recorder, warmup_steps=0)
    owed = np.array(recorder.owed)[:, 0]
    assert owed[1] == 1.0 and owed[2:4] == pytest.approx([5e-7, 5e-7])
    assert np.all(owed[[0, 4, 5, 6, 7]] == 0.0)
    assert np.array(recorder.active)[:, 0].tolist() == [False, True, True, True] + [False] * 4


def test_non_finite_controller_output_is_an_error():
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 1.0, 8.0))
    with pytest.raises(SimulationError, match="non-finite"):
        SimKernel(sc).run(NanController(), warmup_steps=0)


def test_controller_without_idle_is_reset_is_stepped_at_idle_steps():
    # No request is open before step 4, so step 0 is idle; a controller that
    # does not declare idle_is_reset is still stepped there.
    sc = one_request_scenario(ChargingRequest("h0", 4, 8, 1.0, 8.0))
    assert SimKernel(sc).stretch_end[0] > 0
    with pytest.raises(SimulationError, match="non-finite load at step 0$"):
        SimKernel(sc).run(NanController(), warmup_steps=0)


def idle_steps(kernel):
    """Per step, whether no household has an open request there."""
    return np.array(kernel.stretch_end) > np.arange(len(kernel.stretch_end))


def _idle_sign_scenario(step_seconds):
    """Three households with idle stretches, whose baselines hold -0.0: all
    three at every third step and the first at two steps of three."""
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), step_seconds=step_seconds,
                              seed=5)
    base = sc.baseline.copy()
    base[:, ::3] = -0.0
    base[0, 1::3] = -0.0
    return replace(sc, baseline=base)


def _assert_skipping_changes_no_bit(kernel, windows):
    """Every idle_is_reset controller family, lone and batched, gives the
    same bits with idle steps skipped as stepped, over each window."""
    rng = np.random.default_rng(2)
    controllers = [make_controller(kind) for kind in (KIND_MAX, KIND_MIN, KIND_CONST)]
    for mode in ("h", "a"):
        template = init_params(KIND_NN, mode, rng, smoothing=0.3)
        thetas = template.theta + rng.standard_normal((4, template.theta.size))
        controllers.append(make_controller(template))
        # Smoothing 0.9 lags behind, so the deadline floor delivers on the
        # last step before an idle stretch and the history must carry it.
        controllers.append(make_controller(template, thetas, [0.0, 0.3, 0.9, 1.0]))
    for controller in controllers:
        assert controller.idle_is_reset
        for window in windows:
            skipped = kernel.run(controller, **window)
            stepped = kernel.run(EveryStep(controller), **window)
            assert skipped.grid_load.tobytes() == stepped.grid_load.tobytes()
            charging = skipped.per_household_charging
            assert charging.tobytes() == stepped.per_household_charging.tobytes()


@pytest.mark.parametrize("step_seconds", [300, 900, 3600])
def test_skipping_idle_steps_changes_no_bit(step_seconds):
    sc = _idle_sign_scenario(step_seconds)
    kernel = SimKernel(sc)
    idle = idle_steps(kernel)
    assert idle.any() and not idle.all()
    # steps inside an idle stretch: idle before, at and after them
    inside = np.flatnonzero(idle[:-2] & idle[1:-1] & idle[2:]) + 1
    start = int(inside[len(inside) // 2])
    # an end inside a stretch that a busy step follows, so the run stops
    # before the stretch does
    ends = inside[inside < np.flatnonzero(~idle)[-1]]
    end = int(ends[len(ends) // 2])
    assert kernel.stretch_end[end] < sc.timebase.n_steps
    windows = (
        {},
        {"start_step": start, "warmup_steps": 0},
        {"end_step": end, "warmup_steps": 0},
    )
    _assert_skipping_changes_no_bit(kernel, windows)


def _long_idle_kernel():
    """120 hourly steps, idle from 0 to 3, from 9 to 80 and from 92 to the
    end. At 3600-s steps the history ring holds 24 steps, so the last two
    stretches outlast it; the first of them follows a departure whose last
    step the deadline floor may serve. Twelve households, because a grid
    row of eight or more sums pairwise, and a sum over the wrong axis of
    the block would round differently."""
    n_steps = 120
    tb = Timebase(start=MONDAY, n_steps=n_steps, step_seconds=3600)
    baseline = np.random.default_rng(4).uniform(0.2, 3.0, (12, n_steps))
    requests = [
        ChargingRequest("h0", 3, 9, 6.0, 3.0),
        ChargingRequest("h1", 5, 9, 4.0, 2.0),
        *(ChargingRequest(f"h{h}", 78 + h, 92, 5.0, 3.7) for h in range(2, 12)),
    ]
    sc = Scenario(tb, tuple(f"h{h}" for h in range(12)), baseline, tuple(requests))
    kernel = SimKernel(sc)
    assert kernel.stretch_end[:4] == [3, 3, 3, 3]
    assert kernel.stretch_end[9] == 80 and kernel.stretch_end[92] == n_steps
    return kernel


def test_skipping_an_idle_stretch_longer_than_a_day_changes_no_bit():
    kernel = _long_idle_kernel()
    windows = (
        {},
        {"start_step": 40, "warmup_steps": 0},
        {"end_step": 60, "warmup_steps": 0},
    )
    _assert_skipping_changes_no_bit(kernel, windows)


def test_an_idle_stretch_after_its_first_step_is_one_block_push(monkeypatch):
    # 18 busy steps and 3 idle stretches: the first step of each stretch is
    # one push, and the rest of it one block push.
    calls = {"push": 0, "push_block": 0}
    for name in calls:
        method = getattr(RollingBuffer, name)

        def counted(self, values, name=name, method=method):
            calls[name] += 1
            method(self, values)

        monkeypatch.setattr(RollingBuffer, name, counted)
    template = init_params(KIND_NN, "a", np.random.default_rng(0))
    _long_idle_kernel().run(make_controller(template))
    assert calls == {"push": 18 + 3, "push_block": 3}


def test_a_request_left_short_fails_at_the_departure_that_opens_an_idle_stretch():
    # 1 kW on the last step delivers 0.25 of h0's 1 kWh; its departure at
    # step 4 opens an idle stretch that runs to the end.
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 1.0, 8.0), n_steps=12)
    kernel = SimKernel(sc)
    idle = idle_steps(kernel)
    assert idle[4:].all() and not idle[:4].any()
    last_minute = Schedule(lambda rem_steps: rem_steps == 1, 1.0)
    batch = BatchSchedule(Schedule(lambda rem_steps: rem_steps > 0, 4.0), last_minute)
    messages = []
    for controller in (last_minute, batch):
        controller.idle_is_reset = True
        for run_as in (controller, EveryStep(controller)):
            with pytest.raises(SimulationIncomplete) as exc:
                kernel.run(run_as, warmup_steps=0)
            messages.append(str(exc.value))
    assert messages == ["request for h0 departing at step 4 left 7.500e-01 kWh undelivered"] * 4


def test_esn_is_stepped_at_idle_steps():
    template = init_params(KIND_ESN, "h", np.random.default_rng(0), reservoir_size=20)
    assert not make_controller(template).idle_is_reset
    assert not make_controller(template, [template.theta] * 2).idle_is_reset


def test_non_finite_nn_fails_at_the_first_open_request():
    # On a weekday every hidden unit's input is 1e308 (weekday weight) plus
    # 1e308 (bias), which overflows; inf times the zero output weights makes
    # the policy's output NaN at every step. No request is open before step
    # 4: those steps are skipped, unless the controller is stepped at every
    # step.
    sc = one_request_scenario(ChargingRequest("h0", 4, 8, 1.0, 8.0))
    template = init_params(KIND_NN, "h", np.random.default_rng(0))
    h, d = template.hidden_size, 12
    bad = np.zeros_like(template.theta)
    bad[2 : h * d : d] = 1e308
    bad[h * d : h * d + h] = 1e308
    lone = make_controller(replace(template, theta=bad))
    batch = make_controller(template, [template.theta, bad])
    kernel = SimKernel(sc)
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for controller in (lone, batch, EveryStep(lone), EveryStep(batch)):
            with pytest.raises(SimulationError) as exc:
                kernel.run(controller, warmup_steps=0)
            messages.append(str(exc.value))
    assert messages == [f"controller produced a non-finite load at step {t}" for t in (4, 4, 0, 0)]


class BatchSchedule:
    """Stand-in batch controller: candidate k charges as `schedules[k]` does."""

    input_mode = None

    def __init__(self, *schedules):
        self.schedules = schedules
        self.candidates = len(schedules)

    def reset(self, n):
        pass

    def step(self, x, req):
        picks = [np.where(s.pick(req.remaining_steps), s.kw, 0.0) for s in self.schedules]
        return np.stack(picks) * req.active


@pytest.mark.parametrize(
    "requests,failing,message",
    [
        # h1's 2 kWh at 2 kW has no slack; skipping step 0 strands it at step 1.
        (
            ((0, 4, 1.0, 8.0), (0, 4, 2.0, 2.0)),
            Schedule(lambda rem_steps: rem_steps < 4, 2.0),
            "household h1 cannot finish its request from step 1: 2.000000 kWh owed",
        ),
        # 1 kW on the last step covers h0's 0.1 kWh but not h1's 1 kWh.
        (
            ((0, 4, 0.1, 8.0), (0, 4, 1.0, 8.0)),
            Schedule(lambda rem_steps: rem_steps == 1, 1.0),
            "request for h1 departing at step 4 left 7.500e-01 kWh undelivered",
        ),
    ],
)
def test_batch_failure_is_the_lone_failure_of_its_candidate(requests, failing, message):
    sc = scenario_of(np.zeros((len(requests), 8)),
                     [ChargingRequest(f"h{i}", *req) for i, req in enumerate(requests)])
    eager = Schedule(lambda rem_steps: rem_steps > 0, 2.0)
    with pytest.raises(SimulationIncomplete) as lone:
        SimKernel(sc).run(failing, warmup_steps=0)
    assert str(lone.value) == message
    with pytest.raises(SimulationIncomplete) as batch:
        SimKernel(sc).run(BatchSchedule(eager, failing, eager), warmup_steps=0)
    assert str(batch.value) == message


def test_batch_non_finite_candidate_fails_at_its_lone_step():
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=13)
    template = init_params(KIND_NN, "h", np.random.default_rng(0))
    bad = template.theta.copy()
    bad[::2] = 1e300
    bad[1::2] = -1e300
    kernel = SimKernel(sc)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="non-finite load at step") as lone:
            kernel.run(make_controller(replace(template, theta=bad)))
        with pytest.raises(SimulationError) as batch:
            kernel.run(make_controller(template, [template.theta, bad, 0.5 * template.theta]))
    assert str(batch.value) == str(lone.value)


@pytest.mark.parametrize("kind", [KIND_NN, KIND_ESN])
@pytest.mark.parametrize("mode", ["h", "a"])
def test_batch_run_repeats_every_lone_run(kind, mode):
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=5)
    rng = np.random.default_rng(1)
    template = init_params(kind, mode, rng, reservoir_size=50)
    thetas = template.theta + 0.5 * rng.standard_normal((4, template.theta.size))
    smoothing = [0.0, 0.3, 0.9, 1.0]
    kernel = SimKernel(sc)
    batch = kernel.run(make_controller(template, thetas, smoothing))
    n_steps = sc.timebase.n_steps
    assert batch.grid_load.shape == (4, n_steps)
    assert batch.per_household_charging.shape == (4, 3, n_steps)
    lone = [
        kernel.run(make_controller(replace(template, theta=theta, smoothing=beta)))
        for theta, beta in zip(thetas, smoothing)
    ]
    for k, res in enumerate(lone):
        assert np.array_equal(batch.grid_load[k], res.grid_load)
        assert np.array_equal(batch.per_household_charging[k], res.per_household_charging)
    assert objective_std(batch) == [objective_std(res) for res in lone]


def test_feature_layout_household_mode():
    sc = one_request_scenario(
        ChargingRequest("h0", t_arrive=0, t_depart=8, required_energy=2.0, max_kw=4.0)
    )
    rec = Recorder("h")
    SimKernel(sc).run(rec, warmup_steps=0)
    x0 = rec.frames[0]
    assert x0.shape == (1, 12)
    # midnight Monday: clock features are (cos 0, sin 0, weekday)
    assert x0[0, 0] == pytest.approx(1.0)
    assert x0[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert x0[0, 2] == 1.0
    # full window and full energy still ahead
    assert x0[0, 3] == 1.0
    assert x0[0, 4] == 1.0
    # min feasible rate 2 kWh / (8 * 0.25 h) = 1 kW vs the 4 kW limit
    assert x0[0, 5] == pytest.approx(0.25)
    assert x0[0, 6] == x0[0, 5]
    # one observation so far: ratio-to-mean 1, no movement, mid-range
    assert np.allclose(x0[0, 7:12], [1.0, 0.0, 0.0, 0.0, 0.5])


def test_feature_layout_grid_mode_appends_grid_history():
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=5)
    rec = Recorder("a")
    SimKernel(sc).run(rec)
    x0 = rec.frames[0]
    assert x0.shape == (3, 17)
    # the grid history block is shared by all households
    assert np.allclose(x0[0, 12:17], x0[1, 12:17])
    assert np.allclose(x0[0, 12:17], [1.0, 0.0, 0.0, 0.0, 0.5])
    # household history differs between households once loads diverge
    later = rec.frames[50]
    assert not np.allclose(later[0, 7:12], later[1, 7:12])


def test_weekend_flag_flips_on_saturday():
    sc, _, _ = synth_scenario(n_households=2, split_days=(4, 1, 2), seed=3)
    rec = Recorder("h")
    SimKernel(sc).run(rec)
    spd = sc.timebase.steps_per_day
    assert rec.frames[0][0, 2] == 1.0  # Monday
    assert rec.frames[5 * spd][0, 2] == 0.0  # Saturday


def test_requests_before_start_step_are_skipped():
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 5.0, 8.0))
    res = SimKernel(sc).run(make_controller(KIND_MAX), start_step=2, warmup_steps=0)
    assert res.grid_load.shape == (6,)
    assert np.all(res.per_household_charging == 0.0)
    assert res.timebase.start == Timebase(start=MONDAY, n_steps=8).step_to_datetime(2)


@pytest.mark.parametrize("bounds", [(-1, None), (4, 2), (0, 99)])
def test_bad_simulation_range_rejected(bounds):
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 1.0, 8.0))
    start, end = bounds
    with pytest.raises(SimulationError, match="range|warmup"):
        SimKernel(sc).run(make_controller(KIND_MAX), start_step=start, end_step=end)


@pytest.mark.parametrize("warmup", [8, -1])
def test_warmup_cannot_swallow_the_whole_run(warmup):
    """A warmup must leave a step to score and cannot be negative; the error
    names the value."""
    sc = one_request_scenario(ChargingRequest("h0", 0, 4, 1.0, 8.0))
    with pytest.raises(SimulationError, match=f"warmup of {warmup} steps"):
        SimKernel(sc).run(make_controller(KIND_MAX), warmup_steps=warmup)


def test_kernel_reuse_is_deterministic():
    sc, _, _ = synth_scenario(n_households=3, split_days=(2, 1, 1), seed=5)
    kernel = SimKernel(sc)
    a = kernel.run(make_controller(KIND_CONST))
    b = kernel.run(make_controller(KIND_CONST))
    assert np.array_equal(a.grid_load, b.grid_load)
    assert np.array_equal(a.per_household_charging, b.per_household_charging)
    assert a.warmup_steps == b.warmup_steps == sc.timebase.steps_per_day


# ---------------------------------------------------------------------------
# Statistics and export
# ---------------------------------------------------------------------------


def _result(grid, warmup=0, charging=None):
    grid = np.asarray(grid, dtype=float)
    if charging is None:
        charging = np.zeros((1, len(grid)))
    tb = Timebase(start=MONDAY, n_steps=len(grid))
    return SimResult(
        timebase=tb, grid_load=grid, per_household_charging=charging, warmup_steps=warmup
    )


def test_objective_std_ignores_warmup():
    res = _result([100.0, 2.0, 2.0, 2.0], warmup=1)
    assert objective_std(res) == 0.0


def test_load_changes_are_post_warmup_diffs():
    res = _result([9.0, 1.0, 3.0, 6.0], warmup=1)
    assert np.array_equal(load_changes(res), [2.0, 3.0])


def test_result_metrics_values():
    res = _result(np.arange(1.0, 101.0))
    m = result_metrics(res)
    assert m["p2_5_kw"] == pytest.approx(3.475)
    assert m["p97_5_kw"] == pytest.approx(97.525)
    assert m["min_kw"] == 1.0
    assert m["max_kw"] == 100.0
    assert m["mean_kw"] == 50.5
    assert m["warmup_steps"] == 0
    assert m["n_steps"] == 100


def test_metrics_count_charging_energy():
    charging = np.full((2, 4), 1.0)
    res = _result([1.0] * 4, charging=charging)
    assert result_metrics(res)["charging_kwh"] == pytest.approx(2 * 4 * 0.25)


def test_loads_out_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.normal(10.0, 2.0, 6)
    charging = rng.uniform(0.0, 1.0, (2, 6))
    res = _result(grid, charging=charging)
    path = tmp_path / "loads_out.csv"
    write_loads_out_csv(res, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    assert [float(r["grid_kw"]) for r in rows] == list(grid)
    assert rows[0]["timestamp"] == "2026-03-02T00:00:00"
    assert float(rows[3]["charging_kw_total"]) == charging[:, 3].sum()


def test_changes_csv_and_metrics_json(tmp_path):
    res = _result([5.0, 7.0, 4.0])
    write_changes_csv(res, tmp_path / "changes.csv")
    with open(tmp_path / "changes.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["change_kw"]
    assert [float(r[0]) for r in rows[1:]] == [2.0, -3.0]

    write_metrics_json(result_metrics(res), tmp_path / "metrics.json")
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["mean_kw"] == pytest.approx(16.0 / 3.0)
    assert set(doc) == {
        "std_kw",
        "min_kw",
        "p2_5_kw",
        "p97_5_kw",
        "max_kw",
        "mean_kw",
        "charging_kwh",
        "warmup_steps",
        "n_steps",
    }
