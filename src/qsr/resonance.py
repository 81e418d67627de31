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
    """Noise-enhancement findings for one quantity on one curve."""

    quantity: str
    segments: tuple
    noise_peak_x: float | None


@dataclass(frozen=True)
class ScanEntry:
    state: BlochVector
    capacity_segments: int
    fidelity_segments: int
    noise_peak_x: float | None


@dataclass(frozen=True)
class ScanReport:
    """Aggregated enhancement counts over a grid of input states."""

    entries: tuple
    capacity_enhanced_states: int
    fidelity_enhanced_states: int

    @property
    def total_states(self) -> int:
        return len(self.entries)


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
    curve: SweepCurve, quantity: str, slope_epsilon: float = SLOPE_EPSILON
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slopes of noise and of the chosen quantity along the sweep.

    Returns the columns ``(dN_dx, dQ_dx, dQ_dN)``. The x-derivatives are
    central differences inside and one-sided at the two ends. dQ/dN is
    their ratio, left undefined (NaN) wherever |dN/dx| <= slope_epsilon:
    near a noise extremum the parametric slope is singular.
    """
    d_values = np.gradient(curve.values(quantity), curve.step)
    d_noise = np.gradient(curve.noise, curve.step)
    ratio = np.divide(
        d_values,
        d_noise,
        out=np.full_like(d_noise, np.nan),
        where=np.abs(d_noise) > slope_epsilon,
    )
    return d_noise, d_values, ratio


def monotone_branches(curve: SweepCurve) -> list[tuple[int, int]]:
    """Split the sample indices into maximal runs of monotone noise.

    Returns inclusive (start, end) index pairs; consecutive branches share
    the extremum sample that separates them, so every non-extremal sample
    belongs to exactly one branch.
    """
    return _monotone_runs(curve.noise)


def _monotone_runs(values: np.ndarray) -> list[tuple[int, int]]:
    # Flat steps keep the current direction; a branch ends at the sample
    # before the first step against it.
    diff = np.diff(values)
    steps = np.flatnonzero(diff)
    signs = np.sign(diff[steps])
    turns = steps[1:][signs[1:] != signs[:-1]]
    cuts = [0, *turns.tolist(), len(values) - 1]
    return list(zip(cuts[:-1], cuts[1:]))


def _folds(noise: np.ndarray, branches) -> np.ndarray:
    """(lo, hi) noise intervals covered by at least two monotone branches,
    one row per pair of overlapping branches, sorted by lo."""
    ends = np.sort(noise[np.array(branches)], axis=1)
    first, second = np.triu_indices(len(branches), 1)
    lo = np.maximum(ends[first, 0], ends[second, 0])
    hi = np.minimum(ends[first, 1], ends[second, 1])
    folds = np.column_stack((lo, hi))[hi > lo]
    return folds[np.argsort(folds[:, 0], kind="stable")]


def _inside_folds(noise: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Whether each noise value lies strictly inside some fold."""
    # Folds [0, k) start below each value; it is inside one of them when
    # the furthest of their upper ends lies above it. The -inf sentinel
    # keeps the lookup valid when there are no folds.
    k = np.searchsorted(folds[:, 0], noise, side="left")
    reach = np.maximum.accumulate(np.append(folds[:, 1], -np.inf))
    return (k > 0) & (reach[k - 1] > noise)


def detect_multivalued(
    curve: SweepCurve, tol: float = MULTIVALUED_TOL
) -> list[tuple[float, float]]:
    """Noise intervals where two monotone branches disagree on capacity.

    Each branch is oriented by increasing noise and the capacities are
    compared at matched noise values (every sampled noise value of either
    branch inside the overlap, by linear interpolation within the other
    branch). An interval is reported when the branches differ by more than
    ``tol`` bits somewhere inside it. Strictly monotone curves, and pure
    states whose capacity is identically zero, give an empty list.
    """
    noise = curve.noise
    capacity = curve.coherent_info
    branches = _monotone_runs(noise)
    found = []
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            interval = _compare_branches(noise, capacity, branches[i], branches[j], tol)
            if interval is not None:
                found.append(interval)
    return sorted(found)


def _compare_branches(noise, capacity, first, second, tol):
    n1, c1 = _oriented(noise, capacity, first)
    n2, c2 = _oriented(noise, capacity, second)
    lo = max(n1[0], n2[0])
    hi = min(n1[-1], n2[-1])
    if hi <= lo:
        return None
    probes = np.concatenate(
        [n1[(n1 >= lo) & (n1 <= hi)], n2[(n2 >= lo) & (n2 <= hi)]]
    )
    if probes.size == 0:
        return None
    gap = np.abs(np.interp(probes, n1, c1) - np.interp(probes, n2, c2))
    if float(gap.max()) > tol:
        return (float(lo), float(hi))
    return None


def _oriented(noise, capacity, branch):
    lo, hi = branch
    n = noise[lo : hi + 1]
    c = capacity[lo : hi + 1]
    if n[0] > n[-1]:
        return n[::-1], c[::-1]
    return n, c


def detect_enhancement(
    curve: SweepCurve,
    quantity: str,
    slope_epsilon: float = SLOPE_EPSILON,
    min_slope: float = MIN_POSITIVE_SLOPE,
) -> EnhancementReport:
    """Find stretches where the quantity genuinely rises with the noise.

    A sample qualifies when its parametric slope dQ/dN is defined, exceeds
    ``min_slope``, and its noise value is not inside a fold (a noise
    interval covered by two monotone branches). Positive slopes confined
    to a fold are the curve doubling back around the noise extremum; they
    are reported by `detect_multivalued` instead of as enhancement. A
    segment needs at least two consecutive qualifying samples, which
    suppresses single-point finite-difference noise.

    The report also carries the x of the noise maximum when it is an
    interior grid point (the rate region where more flipping means less
    noise lies beyond it).
    """
    _, _, ratio = estimate_slopes(curve, quantity, slope_epsilon)
    noise = curve.noise
    folds = _folds(noise, _monotone_runs(noise))
    # An undefined (NaN) slope compares False, so it never qualifies.
    qualifying = (ratio > min_slope) & ~_inside_folds(noise, folds)

    edges = np.diff(qualifying.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    segments = tuple(
        (float(curve.x[i]), float(curve.x[j]), float(ratio[i : j + 1].max()))
        for i, j in zip(starts.tolist(), ends.tolist())
        if j > i
    )

    peak_index = int(np.argmax(noise))
    noise_peak_x = (
        float(curve.x[peak_index]) if 0 < peak_index < len(noise) - 1 else None
    )
    return EnhancementReport(
        quantity=quantity,
        segments=segments,
        noise_peak_x=noise_peak_x,
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
    """Sweep every ball-grid state and count enhancement of each kind.

    Evaluation order does not affect the result; entries are reported in
    grid order (a1 outermost, a3 innermost).
    """
    entries = []
    for state in bloch_ball_grid(grid_resolution):
        curve = sweep(state, x_min, x_max, x_steps)
        cap = detect_enhancement(curve, "capacity")
        fid = detect_enhancement(curve, "fidelity")
        entries.append(
            ScanEntry(
                state=state,
                capacity_segments=len(cap.segments),
                fidelity_segments=len(fid.segments),
                noise_peak_x=cap.noise_peak_x,
            )
        )
    return ScanReport(
        entries=tuple(entries),
        capacity_enhanced_states=sum(1 for e in entries if e.capacity_segments > 0),
        fidelity_enhanced_states=sum(1 for e in entries if e.fidelity_segments > 0),
    )
