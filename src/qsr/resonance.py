"""Sweeps over the flipping rate and detection of noise-enhancement effects.

Builds parametric curves of the channel's figures of merit against its
noise measure, estimates slopes with finite differences, and classifies
stretches of positive dQ/dN. A stretch whose noise values lie inside a
fold, meaning a noise interval the curve covers on two monotone branches
around a noise extremum, is the curve doubling back on itself; that is
reported as multivalued capacity, not as enhancement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BlochVector, as_bloch
from .two_pauli import two_pauli_metrics

QUANTITIES = ("capacity", "fidelity")

#: |dN/dx| at or below this leaves the parametric slope dQ/dN undefined.
SLOPE_EPSILON = 1e-6

#: dQ/dN must exceed this to count as positive; keeps rounding-level
#: slopes on flat curves (pure states) from registering as enhancement.
MIN_POSITIVE_SLOPE = 1e-9

#: Capacities on two branches must differ by more than this (bits) for a
#: noise interval to count as multivalued.
MULTIVALUED_TOL = 1e-9

_GRID_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Two-Pauli metrics as columns over a uniform, strictly increasing x grid.

    Every column holds one entry per rate in ``x``; ``output_bloch`` is an
    (n, 3) array, one output Bloch vector per rate. Entropies are in bits
    and ``coherent_info`` is exactly ``output_entropy - noise``.
    """

    state: BlochVector
    x: np.ndarray
    noise: np.ndarray
    coherent_info: np.ndarray
    fidelity: np.ndarray
    output_entropy: np.ndarray
    output_bloch: np.ndarray
    step: float

    def __post_init__(self):
        n = len(self.x)
        if n < 3:
            raise ValueError("a sweep needs at least 3 samples for slope estimates")
        columns = (self.noise, self.coherent_info, self.fidelity, self.output_entropy)
        if any(len(c) != n for c in columns) or np.shape(self.output_bloch) != (n, 3):
            raise ValueError("every sweep column needs one entry per rate")
        dx = np.diff(self.x)
        if (dx <= 0.0).any():
            raise ValueError("sweep samples must be strictly increasing in x")
        if np.abs(dx - self.step).max() > _GRID_TOL:
            raise ValueError("sweep samples must be uniformly spaced")

    def values(self, quantity: str) -> np.ndarray:
        """The column of the named quantity (capacity or fidelity)."""
        if quantity == "capacity":
            return self.coherent_info
        if quantity == "fidelity":
            return self.fidelity
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")


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


def sweep(state, x_min: float = 0.0, x_max: float = 0.7, steps: int = 701) -> SweepCurve:
    """Evaluate the two-Pauli metrics at evenly spaced x values.

    Endpoints are included. Requires 0 <= x_min < x_max <= 1 and at least
    3 steps. All rates are evaluated in one array pass.
    """
    state = as_bloch(state)
    if not (0.0 <= x_min < x_max <= 1.0):
        raise ValueError(f"need 0 <= x_min < x_max <= 1, got [{x_min}, {x_max}]")
    if steps < 3:
        raise ValueError(f"need at least 3 steps, got {steps}")
    xs = np.linspace(x_min, x_max, steps)
    metrics = two_pauli_metrics(state, xs)
    return SweepCurve(
        state=state,
        x=metrics.x,
        noise=metrics.noise,
        coherent_info=metrics.coherent_info,
        fidelity=metrics.fidelity,
        output_entropy=metrics.output_entropy,
        output_bloch=metrics.output_bloch,
        step=float(xs[1] - xs[0]),
    )


def estimate_slopes(
    curve: SweepCurve, quantity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slopes of noise and of the chosen quantity along the sweep.

    Returns the columns ``(dN_dx, dQ_dx, dQ_dN)``. The x-derivatives are
    central differences inside and one-sided at the two ends. dQ/dN is
    their ratio, left undefined (NaN) wherever |dN/dx| <= SLOPE_EPSILON:
    near a noise extremum the parametric slope is singular.
    """
    d_noise = np.gradient(curve.noise, curve.step)
    d_values, ratio = _parametric_slope(curve, curve.values(quantity), d_noise)
    return d_noise, d_values, ratio


def _parametric_slope(curve: SweepCurve, values: np.ndarray, d_noise: np.ndarray):
    """dQ/dx of one column and its ratio to dN/dx, NaN where undefined."""
    d_values = np.gradient(values, curve.step)
    ratio = np.divide(
        d_values,
        d_noise,
        out=np.full_like(d_noise, np.nan),
        where=np.abs(d_noise) > SLOPE_EPSILON,
    )
    return d_values, ratio


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


def _inside_folds(noise: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each noise value lies strictly inside some fold (lo, hi)."""
    # Folds [0, k) in order of lo start below each value; it is inside one
    # of them when the furthest of their upper ends lies above it. The
    # -inf sentinel keeps the lookup valid when there are no folds.
    order = np.argsort(lo, kind="stable")
    k = np.searchsorted(lo[order], noise, side="left")
    reach = np.maximum.accumulate(np.append(hi[order], -np.inf))
    return (k > 0) & (reach[k - 1] > noise)


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

    The noise gradient, the monotone branches and the folds are worked out
    once for the curve and shared by both quantities. A sample qualifies
    when its parametric slope dQ/dN is defined, exceeds
    MIN_POSITIVE_SLOPE, and its noise value is not inside a fold (a noise
    interval covered by two monotone branches). Positive slopes confined
    to a fold are the curve doubling back around the noise extremum; they
    are reported by `detect_multivalued` instead of as enhancement. A
    segment needs at least two consecutive qualifying samples, which
    suppresses single-point finite-difference noise.
    """
    noise = curve.noise
    d_noise = np.gradient(noise, curve.step)
    _, _, lo, hi = _folds(noise, _monotone_runs(noise))
    outside = ~_inside_folds(noise, lo, hi)
    peak_index = int(np.argmax(noise))
    noise_peak_x = (
        float(curve.x[peak_index]) if 0 < peak_index < len(noise) - 1 else None
    )
    return EnhancementReport(
        state=curve.state,
        capacity=_segments(curve, curve.coherent_info, d_noise, outside),
        fidelity=_segments(curve, curve.fidelity, d_noise, outside),
        noise_peak_x=noise_peak_x,
    )


def _segments(curve: SweepCurve, values, d_noise, outside) -> tuple:
    """(x_start, x_end, max dQ/dN) of each run of two or more samples whose
    dQ/dN exceeds MIN_POSITIVE_SLOPE outside every fold."""
    _, ratio = _parametric_slope(curve, values, d_noise)
    # An undefined (NaN) slope compares False, so it never qualifies.
    qualifying = (ratio > MIN_POSITIVE_SLOPE) & outside
    edges = np.diff(qualifying.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return tuple(
        (float(curve.x[i]), float(curve.x[j]), float(ratio[i : j + 1].max()))
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
                if a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + 1e-12:
                    grid.append(BlochVector(float(a1), float(a2), float(a3)))
    return grid


def state_scan(
    grid_resolution: int,
    x_steps: int,
    x_min: float = 0.0,
    x_max: float = 0.7,
) -> ScanReport:
    """Sweep every ball-grid state and report its enhancement.

    Evaluation order does not affect the result; entries are reported in
    grid order (a1 outermost, a3 innermost).
    """
    return ScanReport(entries=tuple(
        detect_enhancement(sweep(state, x_min, x_max, x_steps))
        for state in bloch_ball_grid(grid_resolution)
    ))
