import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge.controllers import (
    INIT_SCALE,
    KIND_CONST,
    KIND_ESN,
    KIND_MAX,
    KIND_MIN,
    KIND_NN,
    ControllerParams,
    LearnedController,
    RequestState,
    RuleController,
    build_reservoir,
    init_params,
    load_params,
    make_controller,
    relu,
    save_params,
    sigmoid,
    theta_size_for,
)
from gridcharge.errors import ConfigError, ParameterError


def test_sigmoid_known_value():
    assert sigmoid(np.array([4.0]))[0] == pytest.approx(0.9820137900379085, abs=1e-15)
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = sigmoid(np.array([-800.0, 800.0]))
    assert out[0] == 0.0
    assert out[1] == 1.0
    assert np.all(np.isfinite(out))


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid as it was before: each sign's entries gathered by a mask."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_equal_masked_version():
    special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308,
               5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, 36.0, -36.0, np.inf, -np.inf]
    rng = np.random.default_rng(0)
    x = np.concatenate([special, rng.normal(0.0, 5.0, 2000), rng.normal(0.0, 300.0, 2000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        want = masked_sigmoid(x)
        batch = sigmoid(x[:4000].reshape(4, 50, 20))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(batch.reshape(-1).view(np.int64), want[:4000].view(np.int64))


def test_sigmoid_nan_in_nan_out_without_warning():
    x = np.array([np.nan, 1.0, -np.nan, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(x)
    assert np.isnan(out[[0, 2]]).all()
    assert np.array_equal(out[[1, 3]], masked_sigmoid(x[[1, 3]]))
    assert sigmoid(np.array(2.0)) == masked_sigmoid(np.array(2.0))


def test_relu():
    assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


@pytest.mark.parametrize(
    "kind,mode,expected",
    [
        (KIND_NN, "h", 71),
        (KIND_NN, "a", 96),
        (KIND_ESN, "h", 113),
        (KIND_ESN, "a", 118),
    ],
)
def test_theta_sizes(kind, mode, expected):
    assert theta_size_for(kind, mode) == expected


def test_theta_size_matches_params():
    rng = np.random.default_rng(0)
    p = init_params(KIND_ESN, "a", rng, reservoir_size=30)
    assert theta_size_for(KIND_ESN, "a", reservoir_size=30) == 30 + 17 + 1
    assert p.theta.shape == (48,)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="fancy"),
        dict(input_mode="x"),
        dict(smoothing=1.5),
        dict(smoothing=-0.1),
        dict(leak_rate=0.0),
        dict(leak_rate=1.2),
        dict(hidden_size=0, theta=np.zeros(1)),
        dict(kind=KIND_ESN, reservoir_size=0, theta=np.zeros(13)),
        dict(kind=KIND_ESN, reservoir_seed=-1, theta=np.zeros(113)),
    ],
)
def test_params_validation(kwargs):
    base = dict(kind=KIND_NN, input_mode="h", theta=np.zeros(71))
    base.update(kwargs)
    with pytest.raises(ParameterError):
        ControllerParams(**base)


def test_params_reject_wrong_theta_length():
    with pytest.raises(ParameterError, match="71"):
        ControllerParams(kind=KIND_NN, input_mode="h", theta=np.zeros(70))


def test_params_reject_non_finite_theta():
    theta = np.zeros(71)
    theta[3] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        ControllerParams(kind=KIND_NN, input_mode="h", theta=theta)


@pytest.mark.parametrize("size", [dict(hidden_size=0), dict(reservoir_size=0)])
def test_init_params_rejects_empty_network(size):
    with pytest.raises(ConfigError, match="must be >= 1"):
        init_params(KIND_ESN, "h", np.random.default_rng(0), **size)


def test_init_params_reproducible_and_scaled():
    a = init_params(KIND_NN, "a", np.random.default_rng(7))
    b = init_params(KIND_NN, "a", np.random.default_rng(7))
    assert np.array_equal(a.theta, b.theta)
    assert a.reservoir_seed == b.reservoir_seed
    # weights are INIT_SCALE * standard normal draws
    assert abs(float(np.std(a.theta)) - INIT_SCALE) < 0.05


def test_save_load_round_trip_nn(tmp_path):
    p = init_params(KIND_NN, "a", np.random.default_rng(3), smoothing=0.4)
    p.name = "nn-a+cma"
    p.trained_with = "cma"
    path = tmp_path / "p.json"
    save_params(p, path)
    q = load_params(path)
    assert q.kind == KIND_NN
    assert q.input_mode == "a"
    assert q.smoothing == 0.4
    assert q.name == "nn-a+cma"
    assert q.trained_with == "cma"
    assert np.array_equal(q.theta, p.theta)


def test_save_load_round_trip_esn(tmp_path):
    p = init_params(KIND_ESN, "h", np.random.default_rng(5), reservoir_size=20, leak_rate=0.3)
    path = tmp_path / "p.json"
    save_params(p, path)
    q = load_params(path)
    assert q.reservoir_size == 20
    assert q.leak_rate == 0.3
    assert q.reservoir_seed == p.reservoir_seed
    assert np.array_equal(q.theta, p.theta)


def test_load_params_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParameterError, match="not valid JSON"):
        load_params(path)


def test_load_params_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.json"
    path.write_text(json.dumps({"format_version": 9}))
    with pytest.raises(ParameterError, match="format_version"):
        load_params(path)


def test_load_params_reports_missing_field(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "nn"}))
    with pytest.raises(ParameterError, match="input_mode"):
        load_params(path)


@pytest.mark.parametrize(
    "field,value",
    [
        ("theta", ["abc"]),
        ("smoothing", None),
        ("nn", {"hidden_size": "five"}),
        ("nn", 5),
        ("esn", {"seed": "x"}),
        ("format_version", True),
        ("format_version", 1.0),
        ("esn", {"seed": 7.9}),
        ("esn", {"seed": "12"}),
        ("esn", {"seed": 3, "reservoir_size": 20.9}),
        ("esn", {"seed": 3, "leak_rate": "0.3"}),
        ("smoothing", True),
        ("theta", [True]),
        ("theta", 1.5),
        ("name", 123),
        ("name", ["x"]),
        ("trained_with", 1),
        ("nn", {"hidden_size": True}),
        pytest.param("smoothing", 10**400, id="smoothing-huge-int"),
    ],
)
def test_load_params_reports_malformed_field(tmp_path, field, value):
    """A field of the wrong JSON type is not coerced: the error names the
    file and the field."""
    p = init_params(KIND_ESN if field == "esn" else KIND_NN, "h", np.random.default_rng(0))
    path = tmp_path / "p.json"
    save_params(p, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParameterError) as err:
        load_params(path)
    # A section's malformed key is the last one the case sets.
    name = f"{field}.{list(value)[-1]}" if isinstance(value, dict) else field
    assert str(path) in str(err.value)
    assert name in str(err.value)


# ---------------------------------------------------------------------------
# Reservoir construction
# ---------------------------------------------------------------------------


def test_reservoir_spectral_radius_is_one():
    res = build_reservoir(12, 100, seed=0)
    radius = float(np.max(np.abs(np.linalg.eigvals(res.w_recurrent))))
    assert abs(radius - 1.0) < 1e-9


def test_reservoir_zero_count_exact():
    res = build_reservoir(17, 100, seed=1)
    assert int(np.sum(res.w_recurrent == 0.0)) == 9000


def test_reservoir_deterministic():
    a = build_reservoir(12, 50, seed=42)
    b = build_reservoir(12, 50, seed=42)
    assert np.array_equal(a.w_recurrent, b.w_recurrent)
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.b_in, b.b_in)


def test_reservoir_weights_are_read_only():
    res = build_reservoir(12, 20, seed=3)
    with pytest.raises(ValueError):
        res.w_recurrent[0, 0] = 5.0


def test_reservoir_input_shape_follows_d_in():
    res = build_reservoir(17, 40, seed=2)
    assert res.w_in.shape == (40, 17)
    assert res.b_in.shape == (40,)


# ---------------------------------------------------------------------------
# Learned controller behaviour
# ---------------------------------------------------------------------------


def _nn_params(theta=None, **kwargs):
    if theta is None:
        theta = np.zeros(71)
    return ControllerParams(kind=KIND_NN, input_mode="h", theta=theta, **kwargs)


def test_rates_zero_theta_is_half():
    ctl = LearnedController(_nn_params())
    ctl.reset(3)
    r = ctl.rates(np.zeros((3, 12)))
    assert np.allclose(r, 0.5)


def _step_once(theta, remaining, rem_steps, max_kw=6.0):
    ctl = LearnedController(_nn_params(theta))
    ctl.reset(1)
    out = ctl.step(
        np.zeros((1, 12)),
        RequestState(
            np.ones(1),
            np.array([remaining]),
            np.array([rem_steps]),
            np.array([8.0]),
            np.array([remaining]),
            np.array([max_kw]),
            0.25,
        ),
    )
    return float(out[0])


def test_step_floor_is_just_in_time():
    # Force the policy to 0 through the final bias: with slack in the window
    # the filter lets charging wait, under deadline pressure it forces the
    # just-in-time rate, and the rate limit caps everything.
    lo = np.zeros(71)
    lo[-1] = -50.0
    hi = np.zeros(71)
    hi[-1] = 50.0
    # 4 kWh, 8 steps at 6 kW: up to 10.5 kWh fits in the last 7 steps
    assert _step_once(lo, 4.0, 8.0) == pytest.approx(0.0, abs=1e-15)
    # 2 kWh, 2 steps: the last step alone only holds 1.5 kWh
    assert _step_once(lo, 2.0, 2.0) == pytest.approx(2.0)
    # final step charges whatever is left
    assert _step_once(lo, 1.0, 1.0) == pytest.approx(4.0)
    # a willing policy is still capped by the rate limit
    assert _step_once(hi, 4.0, 8.0) == 6.0


def test_step_zeroes_inactive_households_and_their_memory():
    p = _nn_params(smoothing=0.9)
    ctl = LearnedController(p)
    ctl.reset(2)
    x = np.zeros((2, 12))
    args = dict(
        remaining_kwh=np.array([2.0, 2.0]),
        remaining_steps=np.array([10.0, 10.0]),
        total_steps=np.array([10.0, 10.0]),
        required_kwh=np.array([2.0, 2.0]),
        max_kw=np.array([5.0, 5.0]),
        step_hours=0.25,
    )
    out1 = ctl.step(x, RequestState(np.array([1.0, 0.0]), **args))
    assert out1[1] == 0.0
    assert ctl._last_output[1] == 0.0
    # household 1 goes active: its filter memory starts from zero, so the two
    # households see different smoothing history
    out2 = ctl.step(x, RequestState(np.array([1.0, 1.0]), **args))
    assert out2[0] > out2[1]


def test_full_smoothing_ignores_the_policy():
    """With smoothing 1.0 the filter never lets the policy through, so wildly
    different weights must give identical charging."""
    x = np.random.default_rng(0).normal(size=(3, 12))
    outs = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        p = init_params(KIND_NN, "h", rng, smoothing=1.0)
        ctl = LearnedController(p)
        ctl.reset(3)
        out = ctl.step(
            x,
            RequestState(
                np.ones(3),
                np.array([3.0, 1.0, 0.5]),
                np.array([6.0, 2.0, 1.0]),
                np.array([8.0, 8.0, 8.0]),
                np.array([3.0, 1.0, 0.5]),
                np.array([7.0, 7.0, 7.0]),
                0.25,
            ),
        )
        outs.append(out)
    assert np.array_equal(outs[0], outs[1])


def test_esn_state_update_matches_manual_computation():
    d = 12
    size = 4
    res = build_reservoir(d, size, seed=9)
    theta = np.random.default_rng(1).normal(size=size + d + 1) * 0.1
    p = ControllerParams(
        kind=KIND_ESN, input_mode="h", theta=theta, reservoir_size=size, leak_rate=0.3,
        reservoir_seed=9,
    )
    ctl = LearnedController(p)
    ctl.reset(2)
    x = np.random.default_rng(2).normal(size=(2, d))

    state = np.zeros((2, size))
    pre = state @ res.w_recurrent.T + x @ res.w_in.T + res.b_in
    state = 0.7 * state + 0.3 * np.tanh(pre)
    want = sigmoid(np.concatenate([state, x], axis=1) @ theta[:-1] + theta[-1])

    got = ctl.rates(x)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(ctl._state, state, atol=1e-12)


def test_esn_controller_regenerates_reservoir_from_seed():
    rng = np.random.default_rng(4)
    p = init_params(KIND_ESN, "h", rng, reservoir_size=10)
    a = LearnedController(p)
    b = LearnedController(p)
    assert np.array_equal(a.reservoir.w_recurrent, b.reservoir.w_recurrent)


# ---------------------------------------------------------------------------
# Rule baselines
# ---------------------------------------------------------------------------


def _rule_step(kind, remaining, steps, total, required, max_kw, active=1.0):
    ctl = RuleController(kind)
    ctl.reset(1)
    out = ctl.step(
        None,
        RequestState(
            np.array([active]),
            np.array([remaining]),
            np.array([steps]),
            np.array([total]),
            np.array([required]),
            np.array([max_kw]),
            0.25,
        ),
    )
    return float(out[0])


def test_max_charge_runs_at_the_limit_then_tapers():
    assert _rule_step(KIND_MAX, 5.0, 3, 3, 5.0, 8.0) == 8.0
    assert _rule_step(KIND_MAX, 1.0, 1, 3, 5.0, 8.0) == 4.0


def test_min_charge_defers_until_forced():
    # 2 kWh over 4 steps at 8 kW: the first three steps can be skipped
    assert _rule_step(KIND_MIN, 2.0, 4, 4, 2.0, 8.0) == 0.0
    assert _rule_step(KIND_MIN, 2.0, 1, 4, 2.0, 8.0) == 8.0
    # at 2 kW there is no slack at all
    assert _rule_step(KIND_MIN, 2.0, 4, 4, 2.0, 2.0) == 2.0


def test_const_charge_flat_rate():
    assert _rule_step(KIND_CONST, 5.0, 20, 20, 5.0, 8.0) == 1.0
    # halfway through the requested window the rate does not change
    assert _rule_step(KIND_CONST, 2.5, 10, 20, 5.0, 8.0) == 1.0


def test_rules_zero_when_inactive():
    for kind in (KIND_MAX, KIND_MIN, KIND_CONST):
        assert _rule_step(kind, 5.0, 4, 4, 5.0, 8.0, active=0.0) == 0.0


def test_make_controller_dispatch():
    assert isinstance(make_controller(KIND_MAX), RuleController)
    assert isinstance(make_controller(_nn_params()), LearnedController)
    with pytest.raises(ConfigError):
        make_controller("pid")
    with pytest.raises(ConfigError):
        RuleController("nn")


@settings(max_examples=50, deadline=None)
@given(
    rate_bias=st.floats(-30, 30),
    remaining=st.floats(0.0, 50.0),
    steps=st.integers(1, 96),
    max_kw=st.floats(0.5, 22.0),
)
def test_learned_output_always_within_bounds(rate_bias, remaining, steps, max_kw):
    theta = np.zeros(71)
    theta[-1] = rate_bias
    ctl = LearnedController(_nn_params(theta))
    ctl.reset(1)
    out = ctl.step(
        np.zeros((1, 12)),
        RequestState(
            np.ones(1),
            np.array([remaining]),
            np.array([float(steps)]),
            np.array([float(steps)]),
            np.array([max(remaining, 1e-9)]),
            np.array([max_kw]),
            0.25,
        ),
    )
    floor = min(max(remaining - max_kw * (steps - 1) * 0.25, 0.0) / 0.25, max_kw)
    assert out[0] <= max_kw + 1e-12
    assert out[0] >= floor - 1e-12
