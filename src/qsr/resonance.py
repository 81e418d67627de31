"""Rate sweeps, noise-enhancement detection, and Bloch-ball scans keyed on integer pairs.

Builds parametric curves of the channel's figures of merit against its
noise measure, estimates slopes with finite differences, and classifies
stretches of positive dQ/dN. The noise of a two-Pauli sweep rises to one
peak and falls after it, so it has at most two monotone branches, and
detection refuses a curve with more. Both branches cover the fold, the
noise interval between the larger end value and the peak; a positive-slope
stretch inside it is the curve doubling back on itself and is reported as
multivalued capacity, not as enhancement.

Slopes and enhancement follow the package's leading-axis rule: the curve
of one state gives one result, and the curve of an (m, 3) stack of states
gives one per row, row i equal bit for bit to the call on state i alone.
`state_scan` detects each (m, n) stack of its sweeps in one such call.
It stacks whole rows by the bound and the rule of the noise solve,
`two_pauli._SOLVE_BLOCK` (4,096 samples), so each stack is one solve of
the cubic and its columns and temporaries stay near a megabyte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BLOCH_NORM_TOL
from .two_pauli import _SOLVE_BLOCK, SweepCurve, two_pauli_metrics

#: The default window of flipping rates swept, [DEFAULT_X_MIN, DEFAULT_X_MAX],
#: and the default number of rates in it.
DEFAULT_X_MIN = 0.0
DEFAULT_X_MAX = 0.7
DEFAULT_STEPS = 701

#: Fewest rates a sweep may have: central differences need three.
MIN_STEPS = 3

#: |dN/dx| at or below this leaves the parametric slope dQ/dN undefined.
SLOPE_EPSILON = 1e-6

#: dQ/dN must exceed this to count as positive; keeps rounding-level
#: slopes on flat curves (pure states) from registering as enhancement.
MIN_POSITIVE_SLOPE = 1e-9

#: Capacities on two branches must differ by more than this (bits) for a
#: noise interval to count as multivalued.
MULTIVALUED_TOL = 1e-9

_GRID_TOL = 1e-12


@dataclass(frozen=True)
class EnhancementReport:
    """Noise-enhancement findings on the sweep of one input state.

    ``capacity`` and ``fidelity`` hold each quantity's segments as
    (x_start, x_end, max dQ/dN) triples. ``noise_peak_x`` is the x of the
    noise maximum when it is an interior grid point, else None.
    """

    capacity: tuple
    fidelity: tuple
    noise_peak_x: float | None


@dataclass(frozen=True, eq=False)
class ScanReport:
    """The (N, 3) grid rows ``states``, one EnhancementReport per distinct
    pair in first-row order ``reports``, and the (N,) row-to-report ``pair``."""

    states: np.ndarray
    reports: tuple
    pair: np.ndarray

    @property
    def total_states(self) -> int:
        return len(self.states)

    @property
    def capacity_enhanced_states(self) -> int:
        return int(np.isin(self.pair, [i for i, r in enumerate(self.reports) if r.capacity]).sum())

    @property
    def fidelity_enhanced_states(self) -> int:
        return int(np.isin(self.pair, [i for i, r in enumerate(self.reports) if r.fidelity]).sum())


def sweep(state, x_min: float = DEFAULT_X_MIN, x_max: float = DEFAULT_X_MAX,
          steps: int = DEFAULT_STEPS) -> SweepCurve:
    """Evaluate the two-Pauli metrics at evenly spaced x values.

    Endpoints are included. Requires 0 <= x_min < x_max <= 1 and at least
    MIN_STEPS steps. All rates are evaluated in one array pass.
    """
    _require_window(x_min, x_max, steps)
    return two_pauli_metrics(state, np.linspace(x_min, x_max, steps))


def _require_window(x_min: float, x_max: float, steps: int) -> None:
    if not (0.0 <= x_min < x_max <= 1.0):
        raise ValueError(f"need 0 <= x_min < x_max <= 1, got [{x_min}, {x_max}]")
    _require_steps(steps)


def _require_steps(steps: int) -> None:
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps for slope estimates, got {steps}")


def _grid_step(x: np.ndarray) -> float:
    """The spacing of a sweep's rates, which must number at least 3, be
    strictly increasing and be uniformly spaced within _GRID_TOL."""
    _require_steps(len(x))
    dx = np.diff(x)
    if (dx <= 0.0).any():
        raise ValueError("sweep samples must be strictly increasing in x")
    step = float(x[1] - x[0])
    if np.abs(dx - step).max() > _GRID_TOL:
        raise ValueError("sweep samples must be uniformly spaced")
    return step


def estimate_slopes(curve: SweepCurve) -> tuple[np.ndarray, tuple, tuple]:
    """Slopes of the noise and of both quantities along the sweep.

    Returns ``(dN_dx, dQ_dx, dQ_dN)``: the noise slope, one entry per
    rate, and two pairs of such columns, capacity first, then fidelity;
    on the curve of a stack of states every column is (m, n), one row per
    state. The x-derivatives are central differences inside and one-sided
    at the two ends, so the rates must form a uniform, strictly increasing
    grid of at least 3 samples. dQ/dN is their ratio, left undefined (NaN)
    wherever |dN/dx| <= SLOPE_EPSILON: near a noise extremum the
    parametric slope is singular.
    """
    step = _grid_step(curve.x)
    d_noise = np.gradient(curve.noise, step, axis=-1)
    defined = np.abs(d_noise) > SLOPE_EPSILON
    d_values = tuple(np.gradient(v, step, axis=-1) for v in (curve.coherent_info, curve.fidelity))
    ratios = tuple(
        np.divide(d, d_noise, out=np.full_like(d, np.nan), where=defined) for d in d_values
    )
    return d_noise, d_values, ratios


class _TurningNoise(ValueError):
    """A noise curve with more than two monotone branches; ``row`` is the
    first such row of a stack."""

    def __init__(self, row: int):
        super().__init__(
            "the noise must rise to one peak and fall after it, but over this "
            "window it turns more often (rounding can do that on a very narrow window)"
        )
        self.row = row


def _noise_peak(noise: np.ndarray):
    """Index of the noise maximum (its first sample, on a flat top), along
    the last axis: one index for one curve, one per row for a stack.

    A two-Pauli noise curve has at most two monotone branches: the noise
    rises to one peak and falls after it. Raises `_TurningNoise`, a
    ValueError naming the first such row, when the noise falls before the
    peak or rises after it, which rounding can cause on a very narrow
    window.
    """
    peak = np.argmax(noise, axis=-1)
    steps = np.diff(noise, axis=-1)
    # A NaN step compares False either way, so it refuses its row.
    rising = np.arange(steps.shape[-1]) < np.expand_dims(peak, -1)
    turns = ~np.where(rising, steps >= 0.0, steps <= 0.0).all(axis=-1)
    if turns.any():
        raise _TurningNoise(int(np.argmax(turns)))
    return peak


def detect_multivalued(curve: SweepCurve) -> list[tuple[float, float]]:
    """The noise interval where the two branches disagree on capacity.

    The rising branch (up to the noise peak) and the falling branch (from
    it) both cover the fold, the noise interval (lo, hi) from the larger
    end value max(N[0], N[-1]) to the peak value. Their capacities are
    compared at every sampled noise value in [lo, hi], each by linear
    interpolation along its branch oriented by increasing noise. Returns
    ``[(lo, hi)]`` when they differ by more than MULTIVALUED_TOL bits
    somewhere, else ``[]``: monotone curves, and pure states whose
    capacity is identically zero, give an empty list. Raises ValueError
    when the noise has more than two monotone branches, or on the curve
    of a stack of states.
    """
    if np.ndim(curve.state) == 2:
        raise ValueError(
            f"detection takes the curve of one state, got a stack of {len(curve.state)}")
    noise = curve.noise
    capacity = curve.coherent_info
    peak = _noise_peak(noise)
    lo, hi = max(noise[0], noise[-1]), noise[peak]
    if hi <= lo:
        return []
    probes = noise[(noise >= lo) & (noise <= hi)]
    rising = np.interp(probes, noise[: peak + 1], capacity[: peak + 1])
    falling = np.interp(probes, noise[peak:][::-1], capacity[peak:][::-1])
    if np.abs(rising - falling).max() > MULTIVALUED_TOL:
        return [(float(lo), float(hi))]
    return []


def detect_enhancement(curve: SweepCurve):
    """Find stretches where capacity or fidelity genuinely rises with the noise.

    Returns one EnhancementReport, or on the curve of a stack of states a
    tuple of one per row. The slopes, the noise peak and the fold are
    worked out once per row and shared by both quantities. A sample
    qualifies when its parametric slope dQ/dN (as `estimate_slopes` gives
    it) is defined, exceeds MIN_POSITIVE_SLOPE, and its noise value is not
    inside the fold: the open interval from max(N[0], N[-1]) to the peak
    noise, which both the rising and the falling branch cover. Positive
    slopes confined to the fold are the curve doubling back around the
    noise peak; they are reported by `detect_multivalued` instead of as
    enhancement. A segment needs at least two consecutive qualifying
    samples, which suppresses single-point finite-difference noise. Raises
    `_TurningNoise`, a ValueError naming the first such row, when the
    noise of a row has more than two monotone branches.
    """
    _, _, ratios = estimate_slopes(curve)
    noise = np.atleast_2d(curve.noise)
    peak = _noise_peak(noise)
    lo = np.maximum(noise[:, 0], noise[:, -1])
    hi = noise[np.arange(len(noise)), peak]
    outside = ~((noise > lo[:, None]) & (noise < hi[:, None]))
    last = noise.shape[1] - 1
    peak_x = [float(curve.x[p]) if 0 < p < last else None for p in peak.tolist()]
    segments = (_segments(curve.x, np.atleast_2d(ratio), outside) for ratio in ratios)
    reports = tuple(EnhancementReport(capacity=c, fidelity=f, noise_peak_x=p)
                    for c, f, p in zip(*segments, peak_x))
    return reports if np.ndim(curve.state) == 2 else reports[0]


def _segments(x: np.ndarray, ratio: np.ndarray, outside: np.ndarray) -> list[tuple]:
    """Per row of the (m, n) ``ratio``: the (x_start, x_end, max dQ/dN) of
    each run of two or more samples whose dQ/dN exceeds
    MIN_POSITIVE_SLOPE outside the fold."""
    # An undefined (NaN) slope compares False, so it never qualifies.
    qualifying = (ratio > MIN_POSITIVE_SLOPE) & outside
    edges = np.diff(qualifying.astype(np.int8), axis=-1, prepend=0, append=0)
    # Row-major order pairs each run's start with its own end.
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1] - 1
    found = [[] for _ in range(len(ratio))]
    for row, i, j in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        if j > i:
            found[row].append((float(x[i]), float(x[j]), float(ratio[row, i : j + 1].max())))
    return [tuple(runs) for runs in found]


def bloch_ball_grid(resolution: int) -> np.ndarray:
    """Uniform grid over [-1, 1]^3 clipped to the closed unit ball, as an
    (N, 3) float array of Bloch rows (a1, a2, a3) in lexicographic order:
    a1 outermost, a3 innermost, each ascending."""
    if resolution < 2:
        raise ValueError(f"grid resolution must be at least 2, got {resolution}")
    # Integer numerators make the axis exactly mirror-symmetric.
    axis = (2 * np.arange(resolution) - (resolution - 1)) / (resolution - 1)
    sq = axis * axis
    inside = (sq[:, None, None] + sq[None, :, None]) + sq[None, None, :] <= 1.0 + BLOCH_NORM_TOL
    return axis[np.argwhere(inside)]


def _pairs(grid: np.ndarray, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N,) pair number of each grid row, pairs numbered in first-row
    order, and each pair's first row. The lattice and its keys are freed
    on return, before the scan's sweeps."""
    i1, i2, i3 = np.rint(grid * (resolution - 1)).astype(np.int64).T
    # One int per pair: |i3| < n, so (i1² + i2²) n + |i3| is one-to-one.
    keys = (i1 * i1 + i2 * i2) * resolution + np.abs(i3)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique numbers the pairs in key order; rank them by first row.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def state_scan(grid_resolution: int, x_steps: int, x_min: float = DEFAULT_X_MIN,
               x_max: float = DEFAULT_X_MAX) -> ScanReport:
    """Sweep the ball-grid states and report their enhancement.

    Every two-Pauli metric depends on a state only through a1² + a2² and
    |a3|, so each row is keyed by the exact pair (i1² + i2², |i3|) of its
    lattice numerators i = a (n - 1), and each pair is swept and detected
    once, on its first row in grid order. The pairs' first rows are swept
    in that order as (m, 3) stacks of ``max(1, _SOLVE_BLOCK // x_steps)``
    whole rows, which `two_pauli_metrics` solves in one block, and each
    stack is detected in one `detect_enhancement` call. A window or step
    count that `sweep` refuses raises ValueError before any sweep; a curve
    that detection refuses raises ValueError naming its state and its
    (a1² + a2², |a3|) pair, the first refused in first-row order.
    """
    _require_window(x_min, x_max, x_steps)
    grid = bloch_ball_grid(grid_resolution)
    pair, first_rows = _pairs(grid, grid_resolution)
    reports = []
    per_stack = max(1, _SOLVE_BLOCK // x_steps)
    for top in range(0, len(first_rows), per_stack):
        rows = first_rows[top : top + per_stack]
        curve = sweep(grid[rows], x_min, x_max, x_steps)
        try:
            reports += detect_enhancement(curve)
        except ValueError as exc:
            # A refused curve names its row; a grid error holds for every row.
            a1, a2, a3 = grid[rows[getattr(exc, "row", 0)]].tolist()
            raise ValueError(f"state {(a1, a2, a3)} with (a1^2 + a2^2, |a3|) = "
                             f"{(a1 * a1 + a2 * a2, abs(a3))}: {exc}") from exc
    return ScanReport(states=grid, reports=tuple(reports), pair=pair)
