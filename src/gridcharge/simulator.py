"""Discrete-time grid simulation driving one controller per household.

Each step the engine settles the previous step's charging against the open
requests, lets every household observe its own load (and, in grid input mode,
the total load), asks the controller for charging speeds, and caps delivery
at what each request still needs. The first simulated day is treated as
warmup and excluded from the reported statistics.

The kernel is deliberately table-driven: everything about a request that does
not depend on charging decisions (who is plugged in when, rate limits,
deadline headroom) is precomputed per scenario as (step, household) arrays,
because training evaluates thousands of candidate controllers on the same
scenario and the per-step Python cost dominates. Build one `SimKernel` per
scenario and call `run` once per controller, or once per batch of candidates.

A batch steps K candidates of one controller family in the same loop: every
per-household array gets a leading candidate axis, so the Python cost of a
step is paid once for all K. Each candidate's numbers are exactly those of
its lone run, and a failing candidate raises what its lone run raises (the
first to fail, if several do). The result carries grid load (K, steps) and
charging (K, households, steps). The size of a batch is the caller's to
bound (`optim.MAX_BATCH_FLOATS`).

Controller contract, as `SimKernel.run` uses it:
  input_mode     the feature mode ("h" or "a") the controller reads, or None
                 for one that reads no features
  candidates     K for a batch, None for a lone controller
  reset(n)       called once at the start of a run, with the household count
  step(x, req)   called every step with the features, shaped ([K,]
                 households, features) (None when input_mode is None), and
                 the step's RequestState, whose energy owed and active flags
                 are ([K,] households) and whose request tables are
                 (households,); returns the commanded charging speeds in kW,
                 shaped ([K,] households)
  idle_is_reset  optional; when true, the controller promises that at an idle
                 step (one where no household has an open request) it
                 commands 0 kW everywhere and ends in the state `reset` leaves

For a controller that declares `idle_is_reset`, `run` does not step idle
steps: it audits departures, pushes the load history (which still carries
the previous step's delivery), calls `reset` once at the start of each idle
stretch, and records the baseline total as the grid load. The output arrays
are bit for bit those of stepping every step. A controller without the
attribute is stepped at every step."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .controllers import LearnedController, RequestState, RuleController
from .domain import ENERGY_TOL_KWH, FINISH_TOL_KWH, Scenario, SimResult, Timebase
from .errors import SimulationError, SimulationIncomplete
from .features import FEATURE_NAMES_GRID, INPUT_ALL, INPUT_HOUSEHOLD, RollingBuffer, feature_count
from .features import encode_time_of_day, history_block

Controller = LearnedController | RuleController

# The household features end with the household's history block; grid mode
# appends the grid's.
N_LOCAL_FEATURES = feature_count(INPUT_HOUSEHOLD)
N_HISTORY = len(FEATURE_NAMES_GRID)
OWN_HISTORY = slice(N_LOCAL_FEATURES - N_HISTORY, N_LOCAL_FEATURES)


def resolve_warmup(timebase: Timebase, warmup_steps: int | None, n_steps: int | None = None) -> int:
    """The warmup of a run of `n_steps` (default: the whole timebase):
    `warmup_steps`, or when it is None the default, one day of steps, or
    nothing when the run is too short to spare it. Raises SimulationError
    unless a given warmup is at least 0 and leaves a step to score."""
    n = timebase.n_steps if n_steps is None else n_steps
    if warmup_steps is None:
        return timebase.steps_per_day if n > timebase.steps_per_day else 0
    if warmup_steps < 0:
        raise SimulationError(f"warmup of {warmup_steps} steps is negative")
    if warmup_steps >= n:
        raise SimulationError(f"warmup of {warmup_steps} steps leaves nothing of a {n}-step run")
    return warmup_steps


def no_charge_result(scenario: Scenario) -> SimResult:
    """The scenario with no car charging: grid load is the baseline total."""
    base = scenario.baseline
    return SimResult(
        timebase=scenario.timebase,
        grid_load=base.sum(axis=0),
        per_household_charging=np.zeros_like(base),
        warmup_steps=resolve_warmup(scenario.timebase, None),
    )


class SimKernel:
    """Per-scenario precomputation reused across many simulation runs."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.timebase = scenario.timebase
        tb = self.timebase
        n_steps = tb.n_steps
        n_house = scenario.n_households
        self.base = scenario.baseline
        self.base_total = self.base.sum(axis=0)

        self.clock = np.empty((n_steps, 3))
        for t in range(n_steps):
            c, s = encode_time_of_day(tb.seconds_of_day(t))
            self.clock[t, 0] = c
            self.clock[t, 1] = s
            self.clock[t, 2] = 0.0 if tb.day_of_week(t) >= 5 else 1.0

        # Request-state tables indexed [step, household]; zero outside any
        # request's interval. Inverses are precomputed so the hot loop only
        # multiplies.
        shape = (n_steps, n_house)
        self.covered = np.zeros(shape, dtype=bool)
        self.rem_steps = np.zeros(shape)
        self.total_steps = np.zeros(shape)
        self.required = np.zeros(shape)
        self.max_kw = np.zeros(shape)
        self.frac_steps = np.zeros(shape)       # remaining / total steps
        self.inv_required = np.zeros(shape)
        self.inv_rem_energy = np.zeros(shape)   # 1 / (remaining_steps * step_hours)
        self.inv_max_kw = np.zeros(shape)
        self.headroom_tol = np.full(shape, ENERGY_TOL_KWH)  # deliverable + tolerance

        # Sparse per-step events: request arrivals refill the energy owed,
        # departures assert it was served.
        arrivals: dict[int, tuple[list[int], list[float]]] = {}
        departures: dict[int, list[int]] = {}
        dh = tb.step_hours
        for h, req in zip(scenario.request_rows.tolist(), scenario.requests):
            t0, t1 = req.t_arrive, req.t_depart
            left = (t1 - np.arange(t0, t1)).astype(float)
            self.covered[t0:t1, h] = True
            self.rem_steps[t0:t1, h] = left
            self.total_steps[t0:t1, h] = t1 - t0
            self.required[t0:t1, h] = req.required_energy
            self.max_kw[t0:t1, h] = req.max_kw
            self.frac_steps[t0:t1, h] = left / (t1 - t0)
            if req.required_energy > 0:
                self.inv_required[t0:t1, h] = 1.0 / req.required_energy
            self.inv_rem_energy[t0:t1, h] = 1.0 / (left * dh)
            self.inv_max_kw[t0:t1, h] = 1.0 / req.max_kw
            self.headroom_tol[t0:t1, h] = req.max_kw * left * dh + ENERGY_TOL_KWH
            rows, owed = arrivals.setdefault(t0, ([], []))
            rows.append(h)
            owed.append(float(req.required_energy))
            departures.setdefault(t1, []).append(h)
        self.arrivals = {
            t: (np.asarray(rows, dtype=np.intp), np.asarray(vals))
            for t, (rows, vals) in arrivals.items()
        }
        self.departures = {t: np.asarray(rows, dtype=np.intp) for t, rows in departures.items()}
        # Steps at which no household has an open request.
        self.idle = ~self.covered.any(axis=1)

    @staticmethod
    def _first_failure(failed: np.ndarray, score: np.ndarray) -> tuple[int, int]:
        """(candidate, column) of the failure that a lone run of the first
        failing candidate reports: its column of highest score."""
        width = failed.shape[-1]
        k = int(np.flatnonzero(np.any(failed.reshape(-1, width), axis=1))[0])
        return k, int(np.argmax(score.reshape(-1, width)[k]))

    def _audit_departures(self, t: int, remaining: np.ndarray) -> None:
        rows = self.departures.get(t)
        if rows is None:
            return
        owed = remaining[..., rows]
        failed = owed > ENERGY_TOL_KWH
        if np.any(failed):
            k, j = self._first_failure(failed, owed)
            h = int(rows[j])
            raise SimulationIncomplete(
                f"request for {self.scenario.household_ids[h]} departing at "
                f"step {t} left {float(owed.reshape(-1, len(rows))[k, j]):.3e} kWh undelivered"
            )

    def run(
        self,
        controller: Controller,
        *,
        start_step: int = 0,
        end_step: int | None = None,
        warmup_steps: int | None = None,
    ) -> SimResult:
        """Simulate steps [start_step, end_step) from a cold start.

        Requests that arrived before start_step are skipped: a window has no
        way to know how much of them was already served. A batch controller
        gives a result with a leading candidate axis.

        A non-finite grid load raises SimulationError at its step. An idle
        step of an `idle_is_reset` controller commands nothing, so nothing
        non-finite can come from it: such a controller's non-finite output
        is seen at the first step with an open request, in a lone run and a
        batch alike.
        """
        tb = self.timebase
        end = tb.n_steps if end_step is None else end_step
        if not (0 <= start_step < end <= tb.n_steps):
            raise SimulationError(f"bad simulation range [{start_step},{end})")
        n_out = end - start_step
        warmup_steps = resolve_warmup(tb, warmup_steps, n_out)

        n_house = self.scenario.n_households
        dh = tb.step_hours
        inv_dh = 1.0 / dh
        # Every per-household array gets the candidate axis first; a lone
        # controller has none.
        lone = controller.candidates is None
        lead = () if lone else (controller.candidates,)
        controller.reset(n_house)

        needs_features = controller.input_mode is not None
        grid_mode = controller.input_mode == INPUT_ALL
        x = buf = hist = obs = obs_rows = hist_rows = None
        if needs_features:
            steps_per_hour = tb.steps_per_hour
            x = np.zeros(lead + (n_house, feature_count(controller.input_mode)))
            # One extra buffer row per candidate carries its grid total, so
            # the whole history block is computed in a single pass.
            rows = n_house + 1 if grid_mode else n_house
            obs = np.empty(lead + (rows,))
            buf = RollingBuffer(obs.size, tb.steps_per_day)
            hist = np.empty(lead + (rows, N_HISTORY))
            obs_rows = obs.reshape(-1)
            hist_rows = hist.reshape(-1, N_HISTORY)

        grid = np.empty(lead + (n_out,))
        charging = np.zeros(lead + (n_house, n_out))
        remaining = np.zeros(lead + (n_house,))
        delivered = no_delivery = np.zeros(lead + (n_house,))

        idle = self.idle if getattr(controller, "idle_is_reset", False) else None
        in_idle_stretch = True  # the controller is in its reset state
        for t in range(start_step, end):
            self._audit_departures(t, remaining)
            if needs_features:
                np.add(self.base[:, t], delivered, out=obs[..., :n_house])
                if grid_mode:
                    obs[..., n_house] = obs[..., :n_house].sum(axis=-1)
                buf.push(obs_rows)

            i = t - start_step
            if idle is not None and idle[t]:
                # No request is open: the controller would command 0 kW and
                # end the step in its reset state, so only the history moves.
                if not in_idle_stretch:
                    controller.reset(n_house)
                    delivered = no_delivery
                    in_idle_stretch = True
                total = self.base_total[t] + 0.0
            else:
                in_idle_stretch = False
                arrival = self.arrivals.get(t)
                if arrival is not None:
                    remaining[..., arrival[0]] = arrival[1]

                active = self.covered[t] & (remaining > FINISH_TOL_KWH)
                stuck = remaining > self.headroom_tol[t]
                if stuck.any():
                    k, h = self._first_failure(stuck, remaining - self.headroom_tol[t])
                    raise SimulationIncomplete(
                        f"household {self.scenario.household_ids[h]} cannot finish "
                        f"its request from step {t}: "
                        f"{remaining.reshape(-1, n_house)[k, h]:.6f} kWh owed"
                    )

                if needs_features:
                    x[..., 0:3] = self.clock[t]
                    np.multiply(self.frac_steps[t], active, out=x[..., 3])
                    x[..., 4] = remaining * self.inv_required[t] * active
                    flat = remaining * self.inv_rem_energy[t]
                    np.minimum(flat, self.max_kw[t], out=flat)
                    x[..., 5] = flat * self.inv_max_kw[t] * active
                    x[..., 6] = x[..., 5]
                    history_block(buf, steps_per_hour, out=hist_rows)
                    x[..., OWN_HISTORY] = hist[..., :n_house, :]
                    if grid_mode:
                        x[..., N_LOCAL_FEATURES:] = hist[..., n_house, None, :]

                req = RequestState(
                    active, remaining, self.rem_steps[t], self.total_steps[t], self.required[t],
                    self.max_kw[t], dh,
                )
                speeds = controller.step(x, req)
                delivered = np.minimum(speeds, np.maximum(remaining, 0.0) * inv_dh)
                charging[..., i] = delivered
                remaining -= delivered * dh
                total = self.base_total[t] + delivered.sum(axis=-1)

            if not (math.isfinite(total) if lone else np.isfinite(total).all()):
                raise SimulationError(f"controller produced a non-finite load at step {t}")
            grid[..., i] = total

        self._audit_departures(end, remaining)

        result_tb = Timebase(
            start=tb.step_to_datetime(start_step), n_steps=n_out, step_seconds=tb.step_seconds
        )
        return SimResult(
            timebase=result_tb,
            grid_load=grid,
            per_household_charging=charging,
            warmup_steps=warmup_steps,
        )


# ---------------------------------------------------------------------------
# Result statistics and export
# ---------------------------------------------------------------------------


def objective_std(result: SimResult) -> float | list[float]:
    """Standard deviation of the total grid load after warmup (the quantity
    training minimizes); one value per candidate of a batch result."""
    post = result.grid_load[..., result.warmup_steps :]
    if post.ndim == 1:
        return float(np.std(post))
    return [float(np.std(row)) for row in post]


def load_changes(result: SimResult) -> np.ndarray:
    """Step-to-step changes of the post-warmup grid load, in kW."""
    return np.diff(result.grid_load[result.warmup_steps :])


def result_metrics(result: SimResult) -> dict[str, float | int]:
    post = result.grid_load[result.warmup_steps :]
    step_hours = result.timebase.step_hours
    return {
        "std_kw": objective_std(result),
        "min_kw": float(np.min(post)),
        "p2_5_kw": float(np.percentile(post, 2.5)),
        "p97_5_kw": float(np.percentile(post, 97.5)),
        "max_kw": float(np.max(post)),
        "mean_kw": float(np.mean(post)),
        "charging_kwh": float(result.per_household_charging.sum() * step_hours),
        "warmup_steps": int(result.warmup_steps),
        "n_steps": int(result.timebase.n_steps),
    }


def write_loads_out_csv(result: SimResult, path: str | Path) -> None:
    """One CRLF row per step: step, ISO timestamp, grid kW, charging kW (repr)."""
    tb = result.timebase
    grid = result.grid_load.tolist()
    totals = result.per_household_charging.sum(axis=0).tolist()
    with open(path, "w", newline="") as f:
        f.write("step,timestamp,grid_kw,charging_kw_total\r\n")
        f.write("".join([
            f"{t},{stamp},{grid[t]!r},{totals[t]!r}\r\n"
            for t, stamp in enumerate(tb.iso_timestamps())
        ]))


def write_metrics_json(metrics: dict, path: str | Path) -> None:
    """`metrics` (such as `result_metrics` gives) as indented JSON, in its key order."""
    Path(path).write_text(json.dumps(metrics, indent=2) + "\n")


def write_changes_csv(result: SimResult, path: str | Path) -> None:
    """One CRLF row per post-warmup step-to-step change in kW (repr)."""
    with open(path, "w", newline="") as f:
        f.write("change_kw\r\n")
        f.write("".join([f"{v!r}\r\n" for v in load_changes(result).tolist()]))
