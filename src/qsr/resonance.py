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

from .channel import BlochVector, ChannelMetrics, as_bloch
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


@dataclass(frozen=True)
class SweepCurve:
    """Channel metrics sampled on a uniform, strictly increasing x grid."""

    state: BlochVector
    samples: tuple
    x_min: float
    x_max: float
    step: float

    def __post_init__(self):
        if len(self.samples) < 3:
            raise ValueError("a sweep needs at least 3 samples for slope estimates")
        xs = [s.x for s in self.samples]
        for i in range(1, len(xs)):
            dx = xs[i] - xs[i - 1]
            if dx <= 0.0:
                raise ValueError("sweep samples must be strictly increasing in x")
            if abs(dx - self.step) > _GRID_TOL:
                raise ValueError("sweep samples must be uniformly spaced")

    def noise(self) -> list[float]:
        return [s.noise for s in self.samples]

    def values(self, quantity: str) -> list[float]:
        """Per-sample values of the named quantity (capacity or fidelity)."""
        if quantity == "capacity":
            return [s.coherent_info for s in self.samples]
        if quantity == "fidelity":
            return [s.fidelity for s in self.samples]
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")


@dataclass(frozen=True)
class SlopeSample:
    """Finite-difference slopes at one grid point.

    dQ_dN is None where |dN/dx| <= the slope epsilon: near a noise
    extremum the parametric slope is singular.
    """

    x: float
    dN_dx: float
    dQ_dx: float
    dQ_dN: float | None


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
    3 steps.
    """
    state = as_bloch(state)
    if not (0.0 <= x_min < x_max <= 1.0):
        raise ValueError(f"need 0 <= x_min < x_max <= 1, got [{x_min}, {x_max}]")
    if steps < 3:
        raise ValueError(f"need at least 3 steps, got {steps}")
    xs = np.linspace(x_min, x_max, steps)
    samples = tuple(two_pauli_metrics(state, float(x)) for x in xs)
    return SweepCurve(
        state=state,
        samples=samples,
        x_min=float(x_min),
        x_max=float(x_max),
        step=float(xs[1] - xs[0]),
    )


def _derivative(values, step: float) -> list[float]:
    """Central differences inside, one-sided at the two ends."""
    n = len(values)
    out = [0.0] * n
    out[0] = (values[1] - values[0]) / step
    out[n - 1] = (values[n - 1] - values[n - 2]) / step
    for i in range(1, n - 1):
        out[i] = (values[i + 1] - values[i - 1]) / (2.0 * step)
    return out


def estimate_slopes(
    curve: SweepCurve, quantity: str, slope_epsilon: float = SLOPE_EPSILON
) -> list[SlopeSample]:
    """Slopes of noise and of the chosen quantity along the sweep.

    dQ/dN is the ratio of the two x-derivatives and is left undefined
    (None) wherever |dN/dx| <= slope_epsilon.
    """
    noise = curve.noise()
    values = curve.values(quantity)
    d_noise = _derivative(noise, curve.step)
    d_values = _derivative(values, curve.step)
    out = []
    for sample, dn, dq in zip(curve.samples, d_noise, d_values):
        ratio = dq / dn if abs(dn) > slope_epsilon else None
        out.append(SlopeSample(x=sample.x, dN_dx=dn, dQ_dx=dq, dQ_dN=ratio))
    return out


def monotone_branches(curve: SweepCurve) -> list[tuple[int, int]]:
    """Split the sample indices into maximal runs of monotone noise.

    Returns inclusive (start, end) index pairs; consecutive branches share
    the extremum sample that separates them, so every non-extremal sample
    belongs to exactly one branch.
    """
    return _monotone_runs(curve.noise())


def _monotone_runs(values) -> list[tuple[int, int]]:
    cuts = [0]
    direction = 0
    for i in range(1, len(values)):
        diff = values[i] - values[i - 1]
        if diff == 0.0:
            continue
        step_dir = 1 if diff > 0.0 else -1
        if direction != 0 and step_dir != direction:
            cuts.append(i - 1)
        direction = step_dir
    cuts.append(len(values) - 1)
    return [(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]


def _branch_overlaps(noise, branches) -> list[tuple[float, float]]:
    """Noise intervals covered by at least two monotone branches."""
    overlaps = []
    for i in range(len(branches)):
        lo_i, hi_i = sorted((noise[branches[i][0]], noise[branches[i][1]]))
        for j in range(i + 1, len(branches)):
            lo_j, hi_j = sorted((noise[branches[j][0]], noise[branches[j][1]]))
            lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
            if hi > lo:
                overlaps.append((lo, hi))
    return sorted(overlaps)


def _inside_any(value: float, intervals) -> bool:
    return any(lo < value < hi for lo, hi in intervals)


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
    noise = np.array(curve.noise())
    capacity = np.array(curve.values("capacity"))
    branches = _monotone_runs(noise.tolist())
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
    slopes = estimate_slopes(curve, quantity, slope_epsilon)
    noise = curve.noise()
    branches = _monotone_runs(noise)
    folds = _branch_overlaps(noise, branches)

    qualifying = [
        s.dQ_dN is not None
        and s.dQ_dN > min_slope
        and not _inside_any(noise[i], folds)
        for i, s in enumerate(slopes)
    ]

    segments = []
    i = 0
    n = len(qualifying)
    while i < n:
        if not qualifying[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and qualifying[j + 1]:
            j += 1
        if j > i:
            peak = max(slopes[k].dQ_dN for k in range(i, j + 1))
            segments.append((slopes[i].x, slopes[j].x, peak))
        i = j + 1

    peak_index = max(range(len(noise)), key=noise.__getitem__)
    noise_peak_x = (
        curve.samples[peak_index].x if 0 < peak_index < len(noise) - 1 else None
    )
    return EnhancementReport(
        quantity=quantity,
        segments=tuple(segments),
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
