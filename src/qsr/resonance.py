"""Sweeps over the flipping rate and detection of noise-enhancement effects.

Builds parametric curves of the channel's figures of merit against its
noise measure, estimates slopes with finite differences, and classifies
stretches of positive dQ/dN. A stretch whose noise values lie inside a
fold, meaning strictly inside the noise ranges of two or more monotone
branches around a noise extremum, is the curve doubling back on itself;
that is reported as multivalued capacity, not as enhancement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import BLOCH_NORM_TOL, BlochVector
from .two_pauli import SweepCurve, two_pauli_metrics

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

    state: BlochVector
    capacity: tuple
    fidelity: tuple
    noise_peak_x: float | None


@dataclass(frozen=True)
class ScanReport:
    """Enhancement reports over a grid of input states, in grid order."""

    entries: tuple

    @property
    def total_states(self) -> int:
        return len(self.entries)

    @property
    def capacity_enhanced_states(self) -> int:
        return sum(1 for entry in self.entries if entry.capacity)

    @property
    def fidelity_enhanced_states(self) -> int:
        return sum(1 for entry in self.entries if entry.fidelity)


def sweep(state, x_min: float = DEFAULT_X_MIN, x_max: float = DEFAULT_X_MAX,
          steps: int = DEFAULT_STEPS) -> SweepCurve:
    """Evaluate the two-Pauli metrics at evenly spaced x values.

    Endpoints are included. Requires 0 <= x_min < x_max <= 1 and at least
    MIN_STEPS steps. All rates are evaluated in one array pass.
    """
    if not (0.0 <= x_min < x_max <= 1.0):
        raise ValueError(f"need 0 <= x_min < x_max <= 1, got [{x_min}, {x_max}]")
    _require_steps(steps)
    return two_pauli_metrics(state, np.linspace(x_min, x_max, steps))


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
    rate, and two pairs of such columns, capacity first, then fidelity.
    The x-derivatives are central differences inside and one-sided at the
    two ends, so the rates must form a uniform, strictly increasing grid
    of at least 3 samples. dQ/dN is their ratio, left undefined (NaN)
    wherever |dN/dx| <= SLOPE_EPSILON: near a noise extremum the
    parametric slope is singular.
    """
    step = _grid_step(curve.x)
    d_noise = np.gradient(curve.noise, step)
    defined = np.abs(d_noise) > SLOPE_EPSILON
    d_values = (np.gradient(curve.coherent_info, step),
                np.gradient(curve.fidelity, step))
    ratios = tuple(
        np.divide(d, d_noise, out=np.full_like(d, np.nan), where=defined) for d in d_values
    )
    return d_noise, d_values, ratios


def _monotone_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """Split the sample indices into maximal runs of monotone values.

    Returns inclusive (start, end) index pairs; consecutive runs share the
    extremum sample that separates them. Flat steps keep the current
    direction; a run ends at the sample before the first step against it.
    """
    diff = np.diff(values)
    steps = np.flatnonzero(diff)
    signs = np.sign(diff[steps])
    turns = steps[1:][signs[1:] != signs[:-1]]
    cuts = [0, *turns.tolist(), len(values) - 1]
    return list(zip(cuts[:-1], cuts[1:]))


def _folds(noise: np.ndarray, branches) -> tuple[np.ndarray, ...]:
    """Pairs of monotone branches that cover a common noise interval.

    Returns the arrays ``(first, second, lo, hi)``: the indices into
    ``branches`` of each overlapping pair (first < second, in pair order)
    and the noise interval (lo, hi) that both cover, with hi > lo.
    """
    ends = np.sort(noise[np.array(branches)], axis=1)
    first, second = np.triu_indices(len(branches), 1)
    lo = np.maximum(ends[first, 0], ends[second, 0])
    hi = np.minimum(ends[first, 1], ends[second, 1])
    overlap = hi > lo
    return first[overlap], second[overlap], lo[overlap], hi[overlap]


def _fold_mask(noise: np.ndarray) -> np.ndarray:
    """Whether each noise value lies inside a fold: strictly inside the
    noise ranges of two or more monotone branches."""
    ends = np.sort(noise[np.array(_monotone_runs(noise))], axis=1)
    # Branches whose low end lies below a value, minus those whose high end
    # does not lie above it, are the branches that hold it strictly inside.
    return (np.searchsorted(np.sort(ends[:, 0]), noise, "left")
            - np.searchsorted(np.sort(ends[:, 1]), noise, "right")) >= 2


def detect_multivalued(curve: SweepCurve) -> list[tuple[float, float]]:
    """Noise intervals where two monotone branches disagree on capacity.

    Each pair of branches that covers a common noise interval (a fold) is
    compared there: both are oriented by increasing noise and their
    capacities are compared at matched noise values (every sampled noise
    value of either branch inside the interval, by linear interpolation
    within the other branch). The interval is reported when the branches
    differ by more than MULTIVALUED_TOL bits somewhere inside it. Strictly
    monotone curves, and pure states whose capacity is identically zero,
    give an empty list.
    """
    noise = curve.noise
    capacity = curve.coherent_info
    branches = _monotone_runs(noise)
    first, second, lows, highs = _folds(noise, branches)
    found = []
    for i, j, lo, hi in zip(first.tolist(), second.tolist(), lows.tolist(), highs.tolist()):
        n1, c1 = _oriented(noise, capacity, branches[i])
        n2, c2 = _oriented(noise, capacity, branches[j])
        # lo is where one of the two branches starts, so there is a probe.
        probes = np.concatenate(
            [n1[(n1 >= lo) & (n1 <= hi)], n2[(n2 >= lo) & (n2 <= hi)]]
        )
        gap = np.abs(np.interp(probes, n1, c1) - np.interp(probes, n2, c2))
        if gap.max() > MULTIVALUED_TOL:
            found.append((lo, hi))
    return sorted(found)


def _oriented(noise, capacity, branch):
    lo, hi = branch
    n = noise[lo : hi + 1]
    c = capacity[lo : hi + 1]
    if n[0] > n[-1]:
        return n[::-1], c[::-1]
    return n, c


def detect_enhancement(curve: SweepCurve) -> EnhancementReport:
    """Find stretches where capacity or fidelity genuinely rises with the noise.

    The slopes (one `estimate_slopes` call), the monotone branches and the
    fold mask are worked out once for the curve and shared by both
    quantities. A sample qualifies when its parametric slope dQ/dN is
    defined, exceeds MIN_POSITIVE_SLOPE, and its noise value is not inside
    a fold (strictly inside the noise ranges of two or more monotone
    branches). Positive slopes confined to a fold are the curve doubling
    back around the noise extremum; they are reported by
    `detect_multivalued` instead of as enhancement. A segment needs at
    least two consecutive qualifying samples, which suppresses
    single-point finite-difference noise.
    """
    noise = curve.noise
    _, _, (capacity, fidelity) = estimate_slopes(curve)
    outside = ~_fold_mask(noise)
    peak_index = int(np.argmax(noise))
    noise_peak_x = (
        float(curve.x[peak_index]) if 0 < peak_index < len(noise) - 1 else None
    )
    return EnhancementReport(
        state=curve.state,
        capacity=_segments(curve.x, capacity, outside),
        fidelity=_segments(curve.x, fidelity, outside),
        noise_peak_x=noise_peak_x,
    )


def _segments(x: np.ndarray, ratio: np.ndarray, outside: np.ndarray) -> tuple:
    """(x_start, x_end, max dQ/dN) of each run of two or more samples whose
    dQ/dN (``ratio``) exceeds MIN_POSITIVE_SLOPE outside every fold."""
    # An undefined (NaN) slope compares False, so it never qualifies.
    qualifying = (ratio > MIN_POSITIVE_SLOPE) & outside
    edges = np.diff(qualifying.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return tuple(
        (float(x[i]), float(x[j]), float(ratio[i : j + 1].max()))
        for i, j in zip(starts.tolist(), ends.tolist())
        if j > i
    )


def bloch_ball_grid(resolution: int) -> list[BlochVector]:
    """Uniform grid over [-1, 1]^3 clipped to the closed unit ball."""
    if resolution < 2:
        raise ValueError(f"grid resolution must be at least 2, got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    grid = []
    for a1 in axis:
        for a2 in axis:
            for a3 in axis:
                if a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + BLOCH_NORM_TOL:
                    grid.append(BlochVector(float(a1), float(a2), float(a3)))
    return grid


def state_scan(grid_resolution: int, x_steps: int, x_min: float = DEFAULT_X_MIN,
               x_max: float = DEFAULT_X_MAX) -> ScanReport:
    """Sweep the ball-grid states and report their enhancement.

    Every two-Pauli metric depends on a state only through a1² + a2² and
    |a3|, so each distinct exact pair is swept and detected once, on its
    first state in grid order; the states sharing the pair share that
    report, each with its own ``state``. Entries are reported in grid
    order (a1 outermost, a3 innermost).
    """
    reports = {}
    entries = []
    for state in bloch_ball_grid(grid_resolution):
        key = (state.a1 * state.a1 + state.a2 * state.a2, abs(state.a3))
        if key not in reports:
            reports[key] = detect_enhancement(sweep(state, x_min, x_max, x_steps))
        entries.append(replace(reports[key], state=state))
    return ScanReport(entries=tuple(entries))
