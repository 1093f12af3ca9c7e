"""Charging controllers: trainable policies, rule-based baselines, output shaping.

A controller turns per-step inputs into a charging speed for each household.
Two trainable families share the same contract: a small feedforward network
and an echo state network whose recurrent part is fixed at build time and
whose linear readout is trained. Both emit a rate in [0, 1] that the output
stage converts to kW through a low-pass filter with a deadline floor.

Rule-based baselines (charge at full speed, charge as late as possible,
charge at constant speed) skip features and filtering entirely.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ParameterError, json_integer
from .features import INPUT_MODES, feature_count

KIND_NN = "nn"
KIND_ESN = "esn"
KIND_MAX = "max_charge"
KIND_MIN = "min_charge"
KIND_CONST = "const_charge"
TRAINABLE_KINDS = (KIND_NN, KIND_ESN)
BASELINE_KINDS = (KIND_MAX, KIND_MIN, KIND_CONST)

PARAMS_FORMAT_VERSION = 1

# Network sizes and leak rate of a controller that does not set its own.
DEFAULT_HIDDEN_SIZE = 5
DEFAULT_RESERVOIR_SIZE = 100
DEFAULT_LEAK_RATE = 0.1

INIT_SCALE = 0.1

# Echo state network reservoir: input weights and biases are uniform in
# [-RESERVOIR_INPUT_SCALE, RESERVOIR_INPUT_SCALE], and exactly
# RESERVOIR_ZERO_TENTHS tenths of the recurrent entries are zero.
RESERVOIR_INPUT_SCALE = 0.5
RESERVOIR_ZERO_TENTHS = 9


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below,
    # chosen elementwise instead of by gathering each sign's entries.
    out = np.exp(-np.abs(x), out=np.empty_like(x, dtype=float))
    d = 1.0 + out
    out /= d
    np.divide(1.0, d, out=out, where=x >= 0)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def deadline_floor_kw(
    remaining_kwh: np.ndarray, remaining_steps: np.ndarray, max_kw: np.ndarray, step_hours: float
) -> np.ndarray:
    """The just-in-time rate: what must be charged now so that full-speed
    charging for the rest of the window can still finish the request. Zero
    while there is slack."""
    slack_kwh = max_kw * (np.maximum(remaining_steps, 1.0) - 1.0) * step_hours
    return np.minimum(np.maximum(remaining_kwh - slack_kwh, 0.0) / step_hours, max_kw)


class RequestState(NamedTuple):
    """One step's charging-request state, one entry per household.

    The simulation kernel fills it from its per-scenario request tables;
    entries of households without an open request are zero.
    """

    active: np.ndarray           # an open request that still owes energy
    remaining_kwh: np.ndarray    # energy still owed
    remaining_steps: np.ndarray  # steps left before departure, this one included
    total_steps: np.ndarray      # length of the request window in steps
    required_kwh: np.ndarray     # energy the request asked for at arrival
    max_kw: np.ndarray           # charger rate limit
    step_hours: float


# ---------------------------------------------------------------------------
# Parameter container and (de)serialization
# ---------------------------------------------------------------------------


@dataclass
class ControllerParams:
    """Everything needed to reconstruct a trainable controller.

    `theta` is the flat trained vector. For the echo state network the fixed
    recurrent weights are not stored; they are regenerated deterministically
    from `reservoir_seed`.
    """

    kind: str
    input_mode: str
    theta: np.ndarray
    smoothing: float = 0.0
    hidden_size: int = DEFAULT_HIDDEN_SIZE
    reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    leak_rate: float = DEFAULT_LEAK_RATE
    reservoir_seed: int = 0
    name: str | None = None
    trained_with: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in TRAINABLE_KINDS:
            raise ParameterError(f"unknown trainable controller kind {self.kind!r}")
        if self.input_mode not in INPUT_MODES:
            raise ParameterError(f"unknown input mode {self.input_mode!r}")
        if not (0.0 <= self.smoothing <= 1.0):
            raise ParameterError(f"smoothing must be in [0, 1], got {self.smoothing}")
        if not (0.0 < self.leak_rate <= 1.0):
            raise ParameterError(f"leak_rate must be in (0, 1], got {self.leak_rate}")
        if self.hidden_size < 1 or self.reservoir_size < 1:
            raise ParameterError(
                f"hidden_size and reservoir_size must be >= 1, got {self.hidden_size} "
                f"and {self.reservoir_size}"
            )
        if self.reservoir_seed < 0:
            raise ParameterError(f"reservoir_seed must be >= 0, got {self.reservoir_seed}")
        self.theta = np.asarray(self.theta, dtype=float)
        expected = theta_size_for(
            self.kind, self.input_mode, hidden_size=self.hidden_size,
            reservoir_size=self.reservoir_size,
        )
        if self.theta.shape != (expected,):
            raise ParameterError(
                f"{self.kind} controller with input mode {self.input_mode!r} needs "
                f"{expected} parameters, got {self.theta.shape}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise ParameterError("controller parameters contain non-finite values")


def theta_size_for(kind: str, input_mode: str, *, hidden_size: int = DEFAULT_HIDDEN_SIZE,
                   reservoir_size: int = DEFAULT_RESERVOIR_SIZE) -> int:
    d = feature_count(input_mode)
    if kind == KIND_NN:
        return hidden_size * d + hidden_size + hidden_size + 1
    return reservoir_size + d + 1


def init_params(
    kind: str,
    input_mode: str,
    rng: np.random.Generator,
    *,
    smoothing: float = 0.0,
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
    reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
    leak_rate: float = DEFAULT_LEAK_RATE,
    reservoir_seed: int | None = None,
) -> ControllerParams:
    """Fresh controller parameters with small gaussian weights.

    The settings are the caller's choice, so an invalid one is a ConfigError.
    """
    if reservoir_seed is None:
        reservoir_seed = int(rng.integers(0, 2**31 - 1))
    size = theta_size_for(kind, input_mode, hidden_size=hidden_size, reservoir_size=reservoir_size)
    try:
        return ControllerParams(
            kind=kind,
            input_mode=input_mode,
            theta=INIT_SCALE * rng.standard_normal(size),
            smoothing=smoothing,
            hidden_size=hidden_size,
            reservoir_size=reservoir_size,
            leak_rate=leak_rate,
            reservoir_seed=reservoir_seed,
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def save_params(params: ControllerParams, path: str | Path) -> None:
    doc: dict = {
        "format_version": PARAMS_FORMAT_VERSION,
        "kind": params.kind,
        "input_mode": params.input_mode,
        "smoothing": params.smoothing,
        "name": params.name,
        "trained_with": params.trained_with,
        "theta": [float(v) for v in params.theta],
    }
    if params.kind == KIND_NN:
        doc["nn"] = {"hidden_size": params.hidden_size}
    else:
        doc["esn"] = {
            "reservoir_size": params.reservoir_size,
            "leak_rate": params.leak_rate,
            "seed": params.reservoir_seed,
        }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_params(path: str | Path) -> ControllerParams:
    """The parameters of a file written by `save_params`.

    Every field must have its JSON type: `format_version` 1 and the network
    sizes and reservoir seed JSON integers (not booleans or floats);
    `smoothing`, `leak_rate` and every `theta` entry finite JSON numbers (not
    booleans or strings); `name` and `trained_with` a string or null. A field
    of another type, or a value ControllerParams rejects, raises a
    ParameterError that names the file and the field; bytes that do not
    decode as JSON text raise one that names the file.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: expected a JSON object")

    def typed(field: str, value: object, kind: type) -> object:
        if kind is int:
            return json_integer(path, field, value, error=ParameterError)
        if kind is float:
            if type(value) in (int, float) and abs(value) <= sys.float_info.max:
                return float(value)
        elif type(value) is kind or (kind is str and value is None):
            return value
        what = {float: "a finite JSON number", str: "a string or null", dict: "a JSON object",
                list: "a JSON array"}[kind]
        raise ParameterError(f"{path}: {field} must be {what}, got {json.dumps(value)}")

    def get(field: str, kind: type, default: object = ...) -> object:
        """`field`, a key or "section.key", of JSON type `kind`; `default`
        when it is absent, which only a field with a default may be."""
        section, _, key = field.rpartition(".")
        owner = get(section, dict, {}) if section else doc
        if key in owner:
            return typed(field, owner[key], kind)
        if default is ...:
            raise ParameterError(f"{path}: missing field {field!r}")
        return default

    json_integer(path, "format_version", doc.get("format_version"), PARAMS_FORMAT_VERSION,
                 ParameterError)
    kind = get("kind", str)
    kwargs = dict(
        kind=kind,
        input_mode=get("input_mode", str),
        smoothing=get("smoothing", float, 0.0),
        theta=[typed(f"theta[{i}]", v, float) for i, v in enumerate(get("theta", list))],
        name=get("name", str, None),
        trained_with=get("trained_with", str, None),
    )
    if kind == KIND_NN:
        kwargs["hidden_size"] = get("nn.hidden_size", int, DEFAULT_HIDDEN_SIZE)
    elif kind == KIND_ESN:
        kwargs["reservoir_size"] = get("esn.reservoir_size", int, DEFAULT_RESERVOIR_SIZE)
        kwargs["leak_rate"] = get("esn.leak_rate", float, DEFAULT_LEAK_RATE)
        kwargs["reservoir_seed"] = get("esn.seed", int)
    try:
        return ControllerParams(**kwargs)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Echo state network fixed weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReservoirWeights:
    w_in: np.ndarray       # (size, d_in)
    b_in: np.ndarray       # (size,)
    w_recurrent: np.ndarray  # (size, size), unit spectral radius


def build_reservoir(d_in: int, size: int, seed: int) -> ReservoirWeights:
    """Deterministic fixed weights for an echo state network.

    Input weights and biases are uniform in [-RESERVOIR_INPUT_SCALE,
    RESERVOIR_INPUT_SCALE]. The recurrent matrix starts uniform in
    [-0.5, 0.5], has exactly 90% of its entries zeroed, and is rescaled to
    unit spectral radius. The rare draw whose spectral radius vanishes is
    retried with the next seed.
    """
    n_total = size * size
    n_zero = (RESERVOIR_ZERO_TENTHS * n_total) // 10
    scale = RESERVOIR_INPUT_SCALE
    for attempt in range(32):
        rng = np.random.default_rng(seed + attempt)
        w_in = rng.uniform(-scale, scale, (size, d_in))
        b_in = rng.uniform(-scale, scale, size)
        w = rng.uniform(-0.5, 0.5, (size, size))
        w.flat[rng.permutation(n_total)[:n_zero]] = 0.0
        radius = float(np.max(np.abs(np.linalg.eigvals(w))))
        if radius > 1e-12:
            w /= radius
            for arr in (w_in, b_in, w):
                arr.setflags(write=False)
            return ReservoirWeights(w_in=w_in, b_in=b_in, w_recurrent=w)
    raise ParameterError(f"could not build a usable reservoir from seed {seed}")


@functools.lru_cache(maxsize=16)
def _shared_reservoir(d_in: int, size: int, seed: int) -> ReservoirWeights:
    # The weights are read-only, so every controller with the same
    # (input size, reservoir size, seed) can share one build.
    return build_reservoir(d_in, size, seed)


# ---------------------------------------------------------------------------
# Controllers
# ---------------------------------------------------------------------------


class LearnedController:
    """Trainable policy plus the output low-pass stage, stepped in lockstep
    across all households, and for a batch across K candidates as well.

    A lone controller runs `params` and steps on (households,) arrays. A
    batch runs K `thetas`, each with its own `smoothing` weight (default:
    the template's), in the one family `params` fixes: kind, input mode,
    network sizes, leak rate and reservoir seed. It steps on (K, households)
    arrays and `candidates` is K. Every product is a np.matmul broadcast over
    the candidate axis, so each candidate gets exactly its lone arithmetic.

    A household without an active request has its output forced to zero
    and its filter memory cleared. That memory is all the state a
    feedforward network keeps, so `nn` declares `idle_is_reset`: at a step
    where no household has an open request it commands 0 kW everywhere and
    ends in its reset state, and the simulator skips the step. An echo state
    network must be stepped every step, because its reservoir integrates the
    features whether or not a request is open.
    """

    def __init__(
        self,
        params: ControllerParams,
        thetas: np.ndarray | Sequence[np.ndarray] | None = None,
        smoothing: Sequence[float] | None = None,
    ):
        self.params = params
        self.input_mode = params.input_mode
        self.idle_is_reset = params.kind == KIND_NN
        self.d_in = feature_count(params.input_mode)
        if thetas is None:
            self.candidates = None
            theta = params.theta
            self.smoothing = params.smoothing
        else:
            self.candidates = len(thetas)
            betas = [params.smoothing] * self.candidates if smoothing is None else smoothing
            if len(betas) != self.candidates:
                raise ParameterError(
                    f"a batch needs one smoothing weight per candidate, got {len(betas)} "
                    f"for {self.candidates}"
                )
            # Each candidate must be valid parameters of the template's family.
            for t, b in zip(thetas, betas):
                replace(params, theta=t, smoothing=b)
            theta = np.asarray(thetas, dtype=float)
            self.smoothing = np.asarray(betas, dtype=float)[:, None]
        # Weights carry the candidate axis first (none for a lone controller),
        # laid out so that `@` broadcasts over it.
        lead = theta.shape[:-1]
        if params.kind == KIND_ESN:
            self.reservoir = _shared_reservoir(
                self.d_in, params.reservoir_size, params.reservoir_seed
            )
            self.w_out = theta[..., : params.reservoir_size + self.d_in, None]
            self.b_out = theta[..., -1:]
        else:
            h = params.hidden_size
            d = self.d_in
            self.w1t = theta[..., : h * d].reshape(lead + (h, d)).swapaxes(-1, -2)
            self.b1 = theta[..., None, h * d : h * d + h]
            self.w2 = theta[..., h * d + h : h * d + h + h, None]
            self.b2 = theta[..., -1:]
        self._lead = lead
        self._state: np.ndarray | None = None
        self._readout: np.ndarray | None = None
        self._last_output: np.ndarray | None = None

    def reset(self, n_households: int) -> None:
        self._last_output = np.zeros(self._lead + (n_households,))
        if self.params.kind == KIND_ESN:
            # The readout reads [state, features]; the state lives in its
            # first columns and is updated in place.
            size = self.params.reservoir_size
            self._readout = np.zeros(self._lead + (n_households, size + self.d_in))
            self._state = self._readout[..., :size]

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Raw policy output in [0, 1] for a ([K,] households, d_in) feature
        array."""
        if self.params.kind == KIND_NN:
            hidden = relu(x @ self.w1t + self.b1)
            return sigmoid((hidden @ self.w2)[..., 0] + self.b2)
        alpha = self.params.leak_rate
        res = self.reservoir
        state = self._state
        pre = state @ res.w_recurrent.T
        pre += x @ res.w_in.T
        pre += res.b_in
        np.tanh(pre, out=pre)
        pre *= alpha
        state *= 1.0 - alpha
        state += pre
        self._readout[..., self.params.reservoir_size :] = x
        return sigmoid((self._readout @ self.w_out)[..., 0] + self.b_out)

    def step(self, x: np.ndarray, req: RequestState) -> np.ndarray:
        """Charging speeds in kW: the policy's rates through the low-pass
        filter, clipped to [deadline floor, rate limit]. Needs a `reset` first."""
        r = self.rates(x)
        max_kw = req.max_kw
        # The deadline floor is zero while there is slack, so the policy is
        # free to defer charging entirely.
        floor = deadline_floor_kw(req.remaining_kwh, req.remaining_steps, max_kw, req.step_hours)
        beta = self.smoothing
        blended = beta * self._last_output + (1.0 - beta) * max_kw * r
        out = np.minimum(np.maximum(blended, floor), max_kw)
        out *= req.active
        self._last_output = out
        return out


class RuleController:
    """Fixed charging rules that need no features and carry no state."""

    input_mode = None
    candidates = None
    idle_is_reset = True

    def __init__(self, kind: str):
        if kind not in BASELINE_KINDS:
            raise ConfigError(f"unknown baseline controller {kind!r}")
        self.kind = kind

    def reset(self, n_households: int) -> None:
        pass

    def step(self, x: None, req: RequestState) -> np.ndarray:
        dh = req.step_hours
        if self.kind == KIND_MAX:
            # Front-load: run at the rate limit until the request is done.
            out = np.minimum(req.max_kw, req.remaining_kwh / dh)
        elif self.kind == KIND_MIN:
            # Back-load: charge only what cannot be deferred to later steps.
            out = deadline_floor_kw(req.remaining_kwh, req.remaining_steps, req.max_kw, dh)
        else:
            # Flat rate sized so the full demand lands exactly at departure.
            total = np.maximum(req.total_steps, 1.0)
            out = np.minimum(req.required_kwh / (total * dh), req.max_kw)
        return out * req.active


def make_controller(
    spec: str | ControllerParams,
    thetas: np.ndarray | Sequence[np.ndarray] | None = None,
    smoothing: Sequence[float] | None = None,
) -> LearnedController | RuleController:
    """Controller from a baseline kind name or trained parameters; with
    `thetas` (and optionally one smoothing weight each), a batch of candidates
    in the trained parameters' family."""
    if isinstance(spec, ControllerParams):
        return LearnedController(spec, thetas, smoothing)
    if spec in BASELINE_KINDS and thetas is None:
        return RuleController(spec)
    raise ConfigError(
        f"unknown controller {spec!r}: expected one of {BASELINE_KINDS} or trained parameters"
    )
