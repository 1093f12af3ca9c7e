"""Controller input features.

Each step, every household controller sees a fixed-order feature vector built
from the wall clock, its pending charging request, and recent load history.
Mode ``"h"`` uses household-local load history only (12 features); mode ``"a"``
appends the same five history statistics computed on the total grid load
(17 features).

Layout (household mode, columns 0-11):
  0 time_cos             cosine of the time-of-day angle
  1 time_sin             sine of the time-of-day angle
  2 weekday_flag         1.0 Monday-Friday, 0.0 on weekends
  3 window_fraction_left remaining steps / total steps of the open request
  4 energy_fraction_left remaining energy / requested energy
  5 min_rate_ratio       deadline-keeping flat rate / rate limit
  6 const_rate_ratio     a copy of column 5
  7-11                   household load history block (see history_block)
Grid mode appends columns 12-16: the same history block on total grid load.
Columns 3-6 are zero while no request is open.

Column 6 repeats column 5 on purpose: the flat rate that spreads the energy
still owed evenly over the steps left is also the tightest constant rate, so
the two quantities coincide. The column stays so that the feature count, and
with it the theta size of params format version 1, does not change.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

INPUT_HOUSEHOLD = "h"
INPUT_ALL = "a"
INPUT_MODES = (INPUT_HOUSEHOLD, INPUT_ALL)

FEATURE_NAMES_HOUSEHOLD = (
    "time_cos",
    "time_sin",
    "weekday_flag",
    "window_fraction_left",
    "energy_fraction_left",
    "min_rate_ratio",
    "const_rate_ratio",
    "load_vs_daily_mean",
    "load_delta_step",
    "load_delta_hour",
    "load_delta_3h",
    "load_range_position",
)
FEATURE_NAMES_GRID = (
    "grid_vs_daily_mean",
    "grid_delta_step",
    "grid_delta_hour",
    "grid_delta_3h",
    "grid_range_position",
)


def feature_count(mode: str) -> int:
    if mode == INPUT_HOUSEHOLD:
        return len(FEATURE_NAMES_HOUSEHOLD)
    if mode == INPUT_ALL:
        return len(FEATURE_NAMES_HOUSEHOLD) + len(FEATURE_NAMES_GRID)
    raise ConfigError(f"unknown input mode {mode!r}, expected one of {INPUT_MODES}")


def encode_time_of_day(seconds_of_day: float) -> tuple[float, float]:
    """Map a time of day onto the unit circle: (cos, sin) of its day angle."""
    angle = 2.0 * math.pi * seconds_of_day / 86400.0
    return math.cos(angle), math.sin(angle)


class RollingBuffer:
    """Fixed-capacity ring buffer over row-parallel series.

    Holds the last `capacity` (>= 1) pushed values for each of `n_rows`
    series; reads need a push first. Lag queries clamp to the oldest
    available entry while the buffer is still filling, so early-run features
    degrade gracefully instead of reading uninitialized memory.

    Range invariant: after every push, `lo` and `hi` hold each row's
    `window().min(axis=1)` and `window().max(axis=1)`, bit for bit. A push
    folds the new column in with `np.minimum`/`np.maximum` and rescans only
    the rows whose evicted value may have been an extreme (it was not
    strictly inside the range). A NaN counts in the range while, and only
    while, it is in the window, as it does in the full scan: comparisons
    with NaN are false, so a row whose range or evicted value is NaN is
    rescanned. A row whose minimum is not positive is rescanned too, so that
    the sign of a zero minimum or maximum is the full scan's; loads are
    positive in practice, so this costs nothing there. `push_block` pushes
    many columns and rescans every row once, which meets the invariant by
    definition.
    """

    def __init__(self, n_rows: int, capacity: int):
        self.capacity = capacity
        self.values = np.zeros((n_rows, capacity))
        self.count = 0
        self._pos = 0  # next write slot
        self.lo = np.full(n_rows, np.inf)
        self.hi = np.full(n_rows, -np.inf)

    def push(self, column: np.ndarray) -> None:
        slot = self.values[:, self._pos]
        self._pos = (self._pos + 1) % self.capacity
        evicting = self.count == self.capacity
        if evicting:
            evicted = slot.copy()
        else:
            self.count += 1
        slot[...] = column
        lo, hi = self.lo, self.hi
        np.minimum(lo, slot, out=lo)
        np.maximum(hi, slot, out=hi)
        keep = lo > 0.0
        if evicting:
            # Only a value strictly inside the range cannot have been the
            # extreme; false for NaN too.
            keep &= evicted < hi
            keep &= evicted > lo
        if not np.logical_and.reduce(keep):
            rows = np.logical_not(keep).nonzero()[0]
            win = self.window()[rows]
            lo[rows] = np.minimum.reduce(win, axis=1)
            hi[rows] = np.maximum.reduce(win, axis=1)

    def push_block(self, block: np.ndarray) -> None:
        """Push the m columns of `block` in order, as m calls of `push` would,
        with one full scan for the range. `block` is (g, m) for a g that
        divides n_rows; it stands for itself repeated down the rows, so that
        (n_rows, m) is one block of every row. Only the last `capacity`
        columns reach the ring; the others would be evicted."""
        m = block.shape[1]
        cap = self.capacity
        kept = block[:, max(m - cap, 0) :]
        n = kept.shape[1]
        first = (self._pos + m - n) % cap
        head = min(n, cap - first)
        ring = self.values.reshape(-1, len(block), cap)
        ring[..., first : first + head] = kept[:, :head]
        ring[..., : n - head] = kept[:, head:]
        self._pos = (self._pos + m) % cap
        self.count = min(self.count + m, cap)
        win = self.window()
        np.minimum.reduce(win, axis=1, out=self.lo)
        np.maximum.reduce(win, axis=1, out=self.hi)

    def current(self) -> np.ndarray:
        return self.values[:, (self._pos - 1) % self.capacity]

    def lagged(self, lag: int) -> np.ndarray:
        """Value `lag` pushes ago; clamped to the oldest entry if short."""
        if lag >= self.count:
            lag = self.count - 1
        return self.values[:, (self._pos - 1 - lag) % self.capacity]

    def window(self) -> np.ndarray:
        """All valid entries, shape (n_rows, count); order is not meaningful."""
        if self.count < self.capacity:
            return self.values[:, : self.count]
        return self.values


def history_block(buffer: RollingBuffer, steps_per_hour: int, out: np.ndarray) -> np.ndarray:
    """Five summary statistics of recent load per row, into `out` (n_rows, 5).

    Columns: ratio of the current value to the window mean (1.0 when the mean
    is zero), change over one step, over one hour, over three hours, and the
    current value's position inside the window's [min, max] range (0.5 when
    the range is degenerate or NaN). The range is the buffer's tracked
    `lo`/`hi`, which equal a full scan of the window; the mean still scans
    the window, because a running sum would round differently. Runs in the
    per-step hot path, hence the caller's preallocated `out` and the
    spelled-out ufunc calls.
    """
    cur = buffer.current()

    # The same sum and division as window().mean(axis=1), minus its wrapper.
    mean = np.add.reduce(buffer.window(), axis=1)
    mean /= buffer.count
    out[:, 0] = 1.0
    np.divide(cur, mean, out=out[:, 0], where=mean > 0)

    np.subtract(cur, buffer.lagged(1), out=out[:, 1])
    np.subtract(cur, buffer.lagged(steps_per_hour), out=out[:, 2])
    np.subtract(cur, buffer.lagged(3 * steps_per_hour), out=out[:, 3])

    lo = buffer.lo
    span = buffer.hi - lo
    out[:, 4] = 0.5
    np.divide(cur - lo, span, out=out[:, 4], where=span > 0)
    return out
