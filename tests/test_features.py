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
    for v in (1.0, 2.0, 3.0, 4.0):
        buf.push(np.array([v, 10 * v]))
    assert buf.count == 3
    assert np.array_equal(buf.current(), [4.0, 40.0])
    assert np.array_equal(buf.lagged(1), [3.0, 30.0])
    assert np.array_equal(buf.lagged(2), [2.0, 20.0])
    # Lag beyond history clamps to the oldest surviving entry.
    assert np.array_equal(buf.lagged(7), [2.0, 20.0])
    assert sorted(buf.window()[0]) == [2.0, 3.0, 4.0]


def test_history_block_values():
    buf = RollingBuffer(n_rows=1, capacity=8)
    for v in (1.0, 2.0, 4.0):
        buf.push(np.array([v]))
    out = history_block(buf, steps_per_hour=2, out=np.empty((1, 5)))
    ratio, d_step, d_hour, d_3h, position = out[0]
    assert ratio == pytest.approx(4.0 / (7.0 / 3.0))
    assert d_step == pytest.approx(4.0 - 2.0)
    assert d_hour == pytest.approx(4.0 - 1.0)       # lag 2
    assert d_3h == pytest.approx(4.0 - 1.0)         # lag 6 clamps to oldest
    assert position == pytest.approx(1.0)           # current value is the max


def test_history_block_degenerate_cases():
    buf = RollingBuffer(n_rows=2, capacity=4)
    buf.push(np.zeros(2))
    out = history_block(buf, steps_per_hour=4, out=np.empty((2, 5)))
    # Zero mean reports ratio 1; zero span reports mid-range position.
    assert np.array_equal(out[:, 0], [1.0, 1.0])
    assert np.array_equal(out[:, 4], [0.5, 0.5])
    assert np.array_equal(out[:, 1:4], np.zeros((2, 3)))


def test_history_block_out_parameter_is_returned():
    buf = RollingBuffer(n_rows=3, capacity=4)
    buf.push(np.array([1.0, 2.0, 3.0]))
    out = np.empty((3, 5))
    assert history_block(buf, 4, out=out) is out


def full_scan_history_block(buffer: RollingBuffer, steps_per_hour: int) -> np.ndarray:
    """history_block as it was before the range was tracked: a full scan of
    the window for its mean, minimum and maximum at every call."""
    out = np.empty((len(buffer.values), 5))
    cur = buffer.current()
    win = buffer.window()
    mean = win.mean(axis=1)
    out[:, 0] = 1.0
    np.divide(cur, mean, out=out[:, 0], where=mean > 0)
    np.subtract(cur, buffer.lagged(1), out=out[:, 1])
    np.subtract(cur, buffer.lagged(steps_per_hour), out=out[:, 2])
    np.subtract(cur, buffer.lagged(3 * steps_per_hour), out=out[:, 3])
    lo = win.min(axis=1)
    hi = win.max(axis=1)
    span = hi - lo
    out[:, 4] = 0.5
    np.divide(cur - lo, span, out=out[:, 4], where=span > 0)
    return out


# Ties, repeated extremes, both zeros, negatives, huge and subnormal values.
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308)
CAPACITIES = (1, 2, 3, 24, 96, 288)


def pushed_series(data, *, allow_nan: bool, non_negative: bool):
    """(capacity, rows x pushes series) that wraps the buffer several times,
    drawn from a small palette so that ties and repeated extremes are common."""
    capacity = data.draw(st.sampled_from(CAPACITIES), label="capacity")
    n_rows = data.draw(st.integers(1, 4), label="rows")
    element = st.one_of(
        st.sampled_from(SPECIAL_VALUES),
        st.floats(allow_nan=allow_nan, allow_infinity=False, width=64),
    )
    if allow_nan:
        element = st.one_of(element, st.just(math.nan))
    if non_negative:
        element = element.filter(lambda v: not v < 0.0)
    palette = data.draw(st.lists(element, min_size=1, max_size=6), label="palette")
    wraps = data.draw(st.integers(2, 4), label="wraps")
    extra = data.draw(st.integers(0, capacity - 1), label="extra")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(palette), size=(capacity * wraps + extra, n_rows))
    return capacity, np.asarray(palette, dtype=float)[picks]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tracked_range_equals_full_scan(data):
    capacity, series = pushed_series(data, allow_nan=True, non_negative=False)
    buf = RollingBuffer(series.shape[1], capacity)
    for column in series:
        buf.push(column)
        win = buf.window()
        assert np.array_equal(buf.lo, win.min(axis=1), equal_nan=True)
        assert np.array_equal(buf.hi, win.max(axis=1), equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_history_block_bits_equal_full_scan(data):
    capacity, series = pushed_series(data, allow_nan=False, non_negative=True)
    steps_per_hour = data.draw(st.integers(1, capacity), label="steps_per_hour")
    buf = RollingBuffer(series.shape[1], capacity)
    for column in series:
        buf.push(column)
        with np.errstate(over="ignore"):  # a window sum of huge values is inf
            got = history_block(buf, steps_per_hour, out=np.empty((series.shape[1], 5)))
            want = full_scan_history_block(buf, steps_per_hour)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_zero_minimum_keeps_the_full_scan_sign():
    # The last push leaves -0.0 and 0.0 in the window and evicts 1.0, which
    # was inside the range. np.minimum keeps the newer zero, the full scan
    # the one stored last; the sign of the current -0.0's range position
    # follows whichever the minimum is.
    buf = RollingBuffer(n_rows=1, capacity=3)
    for value in (1.0, 2.0, 0.0, -0.0):
        buf.push(np.array([value]))
        win = buf.window()
        assert np.array_equal(buf.lo.view(np.int64), win.min(axis=1).view(np.int64))
        got = history_block(buf, 1, out=np.empty((1, 5)))
        assert np.array_equal(got.view(np.int64), full_scan_history_block(buf, 1).view(np.int64))


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
    out = history_block(buf, steps_per_hour, out=np.empty((1, 5)))
    assert np.all(np.isfinite(out))
    assert 0.0 <= out[0, 4] <= 1.0
    assert out[0, 0] >= 0.0
