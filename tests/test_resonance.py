import numpy as np
import pytest

from qsr.channel import BlochVector
from qsr.resonance import (
    MIN_POSITIVE_SLOPE,
    MULTIVALUED_TOL,
    SLOPE_EPSILON,
    SweepCurve,
    _monotone_runs,
    bloch_ball_grid,
    detect_enhancement,
    detect_multivalued,
    estimate_slopes,
    state_scan,
    sweep,
)
from qsr.two_pauli import two_pauli_metrics
from qsr.validation import random_bloch_vector

FIG1_STATES = (
    BlochVector(0.1, 0.2, 0.9),
    BlochVector(0.3, 0.4, 0.2),
    BlochVector(0.6, 0.3, 0.5),
    BlochVector(0.1, 0.2, 0.3),
)


@pytest.fixture(scope="module")
def fig1_curves():
    return {state: sweep(state, 0.0, 0.7, 701) for state in FIG1_STATES}


class TestSweep:
    def test_samples_match_direct_evaluation(self, fig1_curves):
        curve = fig1_curves[FIG1_STATES[0]]
        assert len(curve.x) == 701
        direct = two_pauli_metrics(FIG1_STATES[0], 0.7)
        assert curve.x[-1] == 0.7
        assert curve.noise[-1] == direct.noise
        assert curve.coherent_info[-1] == direct.coherent_info
        assert curve.fidelity[-1] == direct.fidelity

    def test_three_point_sweep_endpoints(self):
        curve = sweep((0, 0, 0), 0.0, 1.0, 3)
        assert curve.x.tolist() == [0.0, 0.5, 1.0]
        assert curve.noise[-1] == 0.0

    def test_grid_is_uniform(self, fig1_curves):
        curve = fig1_curves[FIG1_STATES[1]]
        diffs = np.diff(curve.x)
        assert np.abs(diffs - curve.step).max() <= 1e-12

    @pytest.mark.parametrize(
        "bounds", [(1.0, 1.0), (0.5, 0.2), (-0.1, 0.5), (0.0, 1.2)]
    )
    def test_rejects_bad_range(self, bounds):
        with pytest.raises(ValueError, match="x_min < x_max"):
            sweep((0, 0, 0), *bounds)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError, match="3 steps"):
            sweep((0, 0, 0), 0.0, 0.7, 2)


class TestEstimateSlopes:
    def test_fidelity_slope_is_one_without_planar_components(self):
        # F = x exactly when a1 = a2 = 0, so dF/dx = 1 up to rounding
        curve = sweep((0, 0, 0), 0.0, 1.0, 101)
        _, dQ_dx, _ = estimate_slopes(curve, "fidelity")
        assert np.abs(dQ_dx - 1.0).max() < 1e-10

    def test_undefined_at_noise_peak(self):
        # the (0,0,0) noise peaks at x = 1/3; straddle it with a grid fine
        # enough that the central difference at the peak sample drops
        # below the epsilon gate
        lo, hi = 1 / 3 - 5e-4, 1 / 3 + 5e-4
        curve = sweep((0, 0, 0), lo, hi, 101)
        dN_dx, _, dQ_dN = estimate_slopes(curve, "capacity")
        peak = int(np.argmax(curve.noise))
        assert np.isnan(dQ_dN[peak])
        assert abs(dN_dx[peak]) <= SLOPE_EPSILON

    def test_pure_state_capacity_slopes_vanish(self):
        curve = sweep((0, 0, 1), 0.0, 0.7, 701)
        _, dQ_dx, dQ_dN = estimate_slopes(curve, "capacity")
        assert np.abs(dQ_dx).max() < 1e-9
        defined = dQ_dN[~np.isnan(dQ_dN)]
        assert defined.size and np.abs(defined).max() < 1e-6

    def test_noise_derivative_shared_between_quantities(self, fig1_curves):
        curve = fig1_curves[FIG1_STATES[0]]
        cap_dN_dx, _, _ = estimate_slopes(curve, "capacity")
        fid_dN_dx, _, _ = estimate_slopes(curve, "fidelity")
        assert np.array_equal(cap_dN_dx, fid_dN_dx)

    def test_rejects_unknown_quantity(self, fig1_curves):
        with pytest.raises(ValueError, match="unknown quantity"):
            estimate_slopes(fig1_curves[FIG1_STATES[0]], "snr")


class TestMonotoneBranches:
    def test_partition_covers_interior_samples_once(self, fig1_curves):
        for curve in fig1_curves.values():
            branches = _monotone_runs(curve.noise)
            boundaries = {b[0] for b in branches} | {b[1] for b in branches}
            count = [0] * len(curve.x)
            for lo, hi in branches:
                for i in range(lo, hi + 1):
                    count[i] += 1
            for i, c in enumerate(count):
                assert c == (2 if i in boundaries and 0 < i < len(count) - 1 else 1)

    def test_monotone_curve_is_single_branch(self):
        curve = sweep((0, 0, 0), 0.5, 0.7, 51)
        assert _monotone_runs(curve.noise) == [(0, 50)]

    def test_branches_are_noise_monotone(self, fig1_curves):
        for curve in fig1_curves.values():
            noise = curve.noise
            for lo, hi in _monotone_runs(curve.noise):
                diffs = np.diff(noise[lo : hi + 1])
                assert (diffs >= 0).all() or (diffs <= 0).all()


class TestDetectEnhancement:
    def test_no_capacity_enhancement_on_reference_states(self, fig1_curves):
        for state, curve in fig1_curves.items():
            report = detect_enhancement(curve)
            assert report.capacity == (), f"unexpected capacity segments for {state}"

    def test_fidelity_enhancement_present(self, fig1_curves):
        report = detect_enhancement(fig1_curves[BlochVector(0.3, 0.4, 0.2)])
        assert len(report.fidelity) >= 1
        lo, hi, top = report.fidelity[0]
        assert lo < hi and top > MIN_POSITIVE_SLOPE

    def test_fidelity_segment_tracks_noise_direction(self):
        # dF/dx > 0 everywhere, so segments exist exactly where the noise
        # rises with x; on [0.9, 1] the noise only falls
        falling = sweep((0, 0, 0), 0.9, 1.0, 101)
        assert detect_enhancement(falling).fidelity == ()
        rising = sweep((0, 0, 0), 0.05, 0.3, 101)
        report = detect_enhancement(rising)
        assert len(report.fidelity) == 1
        lo, hi, _ = report.fidelity[0]
        assert lo == 0.05 and hi == 0.3

    def test_noise_peak_reported_when_interior(self, fig1_curves):
        for curve in fig1_curves.values():
            report = detect_enhancement(curve)
            assert report.noise_peak_x is not None
            assert 0.0 < report.noise_peak_x < 0.7

    def test_noise_peak_absent_on_monotone_curve(self):
        curve = sweep((0, 0, 0), 0.5, 0.7, 51)
        assert detect_enhancement(curve).noise_peak_x is None

    def test_segments_have_positive_slope_throughout(self, fig1_curves):
        curve = fig1_curves[BlochVector(0.6, 0.3, 0.5)]
        report = detect_enhancement(curve)
        _, _, dQ_dN = estimate_slopes(curve, "fidelity")
        for lo, hi, _ in report.fidelity:
            inside = dQ_dN[(lo <= curve.x) & (curve.x <= hi)]
            assert len(inside) >= 2
            assert (~np.isnan(inside) & (inside > 0)).all()

    def test_grid_refinement_moves_endpoints_at_most_one_cell(self):
        for state in FIG1_STATES:
            coarse = detect_enhancement(sweep(state, 0.0, 0.7, 701))
            fine = detect_enhancement(sweep(state, 0.0, 0.7, 1401))
            assert len(coarse.fidelity) == len(fine.fidelity)
            cell = 0.7 / 700
            for (lo_c, hi_c, _), (lo_f, hi_f, _) in zip(
                coarse.fidelity, fine.fidelity
            ):
                assert abs(lo_c - lo_f) <= cell + 1e-12
                assert abs(hi_c - hi_f) <= cell + 1e-12


class TestDetectMultivalued:
    def test_pure_state_collapses(self):
        curve = sweep((0, 0, 1), 0.0, 0.7, 701)
        assert detect_multivalued(curve) == []

    def test_reference_state_is_multivalued(self, fig1_curves):
        intervals = detect_multivalued(fig1_curves[BlochVector(0.1, 0.2, 0.3)])
        assert len(intervals) >= 1
        lo, hi = intervals[0]
        assert lo < hi

    def test_monotone_subcurve_is_single_valued(self):
        curve = sweep((0, 0, 0), 0.5, 0.7, 101)
        assert detect_multivalued(curve) == []

    def test_intervals_lie_inside_noise_range(self, fig1_curves):
        for curve in fig1_curves.values():
            noise = curve.noise
            for lo, hi in detect_multivalued(curve):
                assert min(noise) - 1e-12 <= lo < hi <= max(noise) + 1e-12


class TestStateScan:
    def test_small_scan(self):
        report = state_scan(5, 201)
        states = {e.state.as_tuple() for e in report.entries}
        assert (0.0, 0.0, 0.0) in states
        assert all(
            e.state.norm_squared <= 1.0 + 1e-12 for e in report.entries
        )
        assert report.capacity_enhanced_states == 0
        assert report.fidelity_enhanced_states > 0
        assert report.total_states == len(report.entries)

    def test_grid_excludes_outside_ball(self):
        grid = bloch_ball_grid(3)
        assert len(grid) == 7  # center plus the six axis poles
        assert all(v.norm_squared <= 1.0 + 1e-12 for v in grid)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            state_scan(1, 101)

    def test_detection_runs_once_per_curve(self, monkeypatch):
        import qsr.resonance as resonance

        counts = {"_folds": 0, "_monotone_runs": 0}
        for name in counts:
            original = getattr(resonance, name)

            def counted(*args, _original=original, _name=name):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(resonance, name, counted)
        report = state_scan(3, 51)
        assert report.total_states == 7
        assert counts == {"_folds": 7, "_monotone_runs": 7}


def test_pure_states_never_register_capacity_enhancement():
    rng = np.random.default_rng(51)
    for _ in range(10):
        v = random_bloch_vector(rng, pure=True)
        curve = sweep(v, 0.0, 0.7, 351)
        assert detect_enhancement(curve).capacity == ()
        assert detect_multivalued(curve) == []


def _loop_runs(noise):
    """Monotone runs by the per-sample loop the array code replaced."""
    cuts, direction = [0], 0
    for i in range(1, len(noise)):
        diff = noise[i] - noise[i - 1]
        if diff == 0.0:
            continue
        step_dir = 1 if diff > 0.0 else -1
        if direction != 0 and step_dir != direction:
            cuts.append(i - 1)
        direction = step_dir
    cuts.append(len(noise) - 1)
    return list(zip(cuts[:-1], cuts[1:]))


def _loop_segments(curve, quantity):
    """Enhancement segments by the per-sample loop the array code replaced."""
    x, noise = curve.x.tolist(), curve.noise.tolist()
    values, h = curve.values(quantity).tolist(), curve.step
    n = len(x)

    def derivative(v):
        inner = [(v[i + 1] - v[i - 1]) / (2.0 * h) for i in range(1, n - 1)]
        return [(v[1] - v[0]) / h, *inner, (v[-1] - v[-2]) / h]

    ratio = [dq / dn if abs(dn) > SLOPE_EPSILON else None
             for dn, dq in zip(derivative(noise), derivative(values))]
    ends = [sorted((noise[lo], noise[hi])) for lo, hi in _loop_runs(noise)]
    folds = [(max(a[0], b[0]), min(a[1], b[1]))
             for k, a in enumerate(ends) for b in ends[k + 1:]]
    qualifying = [r is not None and r > MIN_POSITIVE_SLOPE
                  and not any(lo < noise[i] < hi for lo, hi in folds if hi > lo)
                  for i, r in enumerate(ratio)] + [False]
    segments, start = [], None
    for i, q in enumerate(qualifying):
        if q and start is None:
            start = i
        elif not q and start is not None:
            if i - 1 > start:
                segments.append((x[start], x[i - 1], max(ratio[start:i])))
            start = None
    return tuple(segments)


def _loop_multivalued(curve):
    """Multivalued intervals by the all-pairs branch comparison that the
    shared fold computation replaced."""
    noise, capacity = curve.noise, curve.coherent_info

    def oriented(branch):
        lo, hi = branch
        n, c = noise[lo : hi + 1], capacity[lo : hi + 1]
        return (n[::-1], c[::-1]) if n[0] > n[-1] else (n, c)

    branches = _loop_runs(noise.tolist())
    found = []
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            n1, c1 = oriented(branches[i])
            n2, c2 = oriented(branches[j])
            lo, hi = max(n1[0], n2[0]), min(n1[-1], n2[-1])
            if hi <= lo:
                continue
            probes = np.concatenate([n1[(n1 >= lo) & (n1 <= hi)], n2[(n2 >= lo) & (n2 <= hi)]])
            if probes.size == 0:
                continue
            gap = np.abs(np.interp(probes, n1, c1) - np.interp(probes, n2, c2))
            if float(gap.max()) > MULTIVALUED_TOL:
                found.append((float(lo), float(hi)))
    return sorted(found)


def test_array_detection_matches_loop_reference(fig1_curves):
    # Random walks with flat steps exercise ties, turns and many folds.
    rng = np.random.default_rng(52)
    curves = list(fig1_curves.values())
    for _ in range(40):
        n = int(rng.integers(3, 300))
        x = np.linspace(0.0, 1.0, n)
        noise = np.cumsum(rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(size=n))
        values = np.cumsum(rng.normal(size=n))
        curves.append(SweepCurve(BlochVector(0, 0, 0), x, noise, values, values[::-1],
                                 np.zeros(n), np.zeros((n, 3)), float(x[1] - x[0])))
    # The first and last branches meet only at N = 1, which is no fold.
    touching = np.array([0.0, 1.0, 0.5, 2.0, 1.0])
    values = np.arange(5.0) ** 2
    curves.append(SweepCurve(BlochVector(0, 0, 0), np.linspace(0.0, 1.0, 5), touching, values,
                             values, np.zeros(5), np.zeros((5, 3)), 0.25))
    multivalued = 0
    for curve in curves:
        assert _monotone_runs(curve.noise) == _loop_runs(curve.noise.tolist())
        report = detect_enhancement(curve)
        assert report.capacity == _loop_segments(curve, "capacity")
        assert report.fidelity == _loop_segments(curve, "fidelity")
        intervals = detect_multivalued(curve)
        assert intervals == _loop_multivalued(curve)
        multivalued += bool(intervals)
    # The comparison covers curves that do have multivalued intervals.
    assert multivalued >= 10


def test_reports_are_deterministic():
    state = BlochVector(0.6, 0.3, 0.5)
    a = detect_enhancement(sweep(state, 0.0, 0.7, 701))
    b = detect_enhancement(sweep(state, 0.0, 0.7, 701))
    assert a == b
