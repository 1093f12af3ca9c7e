"""Clock encoding, rolling history buffers, and the history statistics block."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcharge.errors import ConfigError
from gridcharge.features import (
    FEATURE_NAMES_GRID,
    FEATURE_NAMES_HOUSEHOLD,
    RollingBuffer,
    encode_time_of_day,
    feature_count,
    history_block,
)


def test_feature_counts():
    assert feature_count("h") == 12 == len(FEATURE_NAMES_HOUSEHOLD)
    assert feature_count("a") == 17 == len(FEATURE_NAMES_HOUSEHOLD) + len(FEATURE_NAMES_GRID)
    with pytest.raises(ConfigError):
        feature_count("x")


def test_encode_time_of_day():
    assert encode_time_of_day(0) == (1.0, 0.0)
    c, s = encode_time_of_day(21600)  # 06:00 is a quarter turn
    assert abs(c) < 1e-12 and abs(s - 1.0) < 1e-12
    c, s = encode_time_of_day(43200)
    assert abs(c + 1.0) < 1e-12 and abs(s) < 1e-12
    # Continuity across midnight: 23:59:59 is close to 00:00:00.
    c1, s1 = encode_time_of_day(86399)
    assert math.hypot(c1 - 1.0, s1) < 1e-3


def test_rolling_buffer_fill_and_wrap():
    buf = RollingBuffer(n_rows=2, capacity=3)
    with pytest.raises(ConfigError):
        buf.current()
    for v in (1.0, 2.0, 3.0, 4.0):
        buf.push(np.array([v, 10 * v]))
    assert buf.count == 3
    assert np.array_equal(buf.current(), [4.0, 40.0])
    assert np.array_equal(buf.lagged(1), [3.0, 30.0])
    assert np.array_equal(buf.lagged(2), [2.0, 20.0])
    # Lag beyond history clamps to the oldest surviving entry.
    assert np.array_equal(buf.lagged(7), [2.0, 20.0])
    assert sorted(buf.window()[0]) == [2.0, 3.0, 4.0]


def test_rolling_buffer_rejects_bad_capacity():
    with pytest.raises(ConfigError):
        RollingBuffer(n_rows=1, capacity=0)


def test_history_block_values():
    buf = RollingBuffer(n_rows=1, capacity=8)
    for v in (1.0, 2.0, 4.0):
        buf.push(np.array([v]))
    out = history_block(buf, steps_per_hour=2)
    ratio, d_step, d_hour, d_3h, position = out[0]
    assert ratio == pytest.approx(4.0 / (7.0 / 3.0))
    assert d_step == pytest.approx(4.0 - 2.0)
    assert d_hour == pytest.approx(4.0 - 1.0)       # lag 2
    assert d_3h == pytest.approx(4.0 - 1.0)         # lag 6 clamps to oldest
    assert position == pytest.approx(1.0)           # current value is the max


def test_history_block_degenerate_cases():
    buf = RollingBuffer(n_rows=2, capacity=4)
    buf.push(np.zeros(2))
    out = history_block(buf, steps_per_hour=4)
    # Zero mean reports ratio 1; zero span reports mid-range position.
    assert np.array_equal(out[:, 0], [1.0, 1.0])
    assert np.array_equal(out[:, 4], [0.5, 0.5])
    assert np.array_equal(out[:, 1:4], np.zeros((2, 3)))


def test_history_block_out_parameter_is_returned():
    buf = RollingBuffer(n_rows=3, capacity=4)
    buf.push(np.array([1.0, 2.0, 3.0]))
    out = np.empty((3, 5))
    assert history_block(buf, 4, out=out) is out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_history_block_always_finite_and_bounded(series, steps_per_hour):
    buf = RollingBuffer(n_rows=1, capacity=10)
    for v in series:
        buf.push(np.array([v]))
    out = history_block(buf, steps_per_hour)
    assert np.all(np.isfinite(out))
    assert 0.0 <= out[0, 4] <= 1.0
    assert out[0, 0] >= 0.0
