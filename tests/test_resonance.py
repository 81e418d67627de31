import math
import re
import tracemalloc

import numpy as np
import pytest

from qsr.channel import BLOCH_NORM_TOL, BlochVector
from qsr.cli import MAX_GRID_RESOLUTION, MAX_STEPS
from qsr.resonance import (
    MIN_POSITIVE_SLOPE,
    MULTIVALUED_TOL,
    SLOPE_EPSILON,
    SweepCurve,
    _noise_peak,
    _pairs,
    _TurningNoise,
    bloch_ball_grid,
    detect_enhancement,
    detect_multivalued,
    estimate_slopes,
    state_scan,
    sweep,
)
from qsr.two_pauli import two_pauli_metrics
from qsr.validation import random_bloch_vector

#: Relative agreement of the peak dQ/dN of a shared scan report with the
#: state's own sweep.
SHARED_SLOPE_RTOL = 1e-9

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
        assert np.abs(diffs - (curve.x[1] - curve.x[0])).max() <= 1e-12

    @pytest.mark.parametrize(
        "bounds", [(1.0, 1.0), (0.5, 0.2), (-0.1, 0.5), (0.0, 1.2)]
    )
    def test_rejects_bad_range(self, bounds):
        with pytest.raises(ValueError, match="x_min < x_max"):
            sweep((0, 0, 0), *bounds)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError, match="3 steps"):
            sweep((0, 0, 0), 0.0, 0.7, 2)
        with pytest.raises(ValueError, match="3 steps"):
            sweep((0, 0, 0), 0.0, 0.7, -1)

    def test_is_the_record_of_its_rates(self):
        state = BlochVector(0.6, 0.3, 0.5)
        curve = sweep(state, 0.1, 0.9, 37)
        direct = two_pauli_metrics(state, np.linspace(0.1, 0.9, 37))
        assert isinstance(direct, SweepCurve)
        assert np.array_equal(direct.state, state.as_tuple())
        for name in ("state", "x", "noise", "coherent_info", "fidelity", "output_entropy",
                     "output_bloch"):
            assert np.array_equal(getattr(curve, name), getattr(direct, name)), name


def test_record_rejects_a_column_of_the_wrong_length():
    curve = two_pauli_metrics((0.3, 0.4, 0.2), np.linspace(0.0, 0.7, 5))
    with pytest.raises(ValueError, match="one entry per rate"):
        SweepCurve(curve.state, curve.x, curve.noise[:-1], curve.coherent_info,
                   curve.fidelity, curve.output_entropy, curve.output_bloch)


@pytest.mark.parametrize("detect", [estimate_slopes, detect_enhancement])
@pytest.mark.parametrize("rates, message", [
    ([0.1, 0.2], "at least 3 steps"),
    ([0.1, 0.3, 0.2, 0.4], "strictly increasing"),
    ([0.1, 0.2, 0.4], "uniformly spaced"),
])
def test_slopes_need_a_uniform_increasing_grid(detect, rates, message):
    with pytest.raises(ValueError, match=message):
        detect(two_pauli_metrics((0.3, 0.4, 0.2), rates))


class TestEstimateSlopes:
    def test_fidelity_slope_is_one_without_planar_components(self):
        # F = x exactly when a1 = a2 = 0, so dF/dx = 1 up to rounding
        curve = sweep((0, 0, 0), 0.0, 1.0, 101)
        _, (_, dF_dx), _ = estimate_slopes(curve)
        assert np.abs(dF_dx - 1.0).max() < 1e-10

    def test_undefined_at_noise_peak(self):
        # the (0,0,0) noise peaks at x = 1/3; straddle it with a grid fine
        # enough that the central difference at the peak sample drops
        # below the epsilon gate
        lo, hi = 1 / 3 - 5e-4, 1 / 3 + 5e-4
        curve = sweep((0, 0, 0), lo, hi, 101)
        dN_dx, _, dQ_dN = estimate_slopes(curve)
        peak = int(np.argmax(curve.noise))
        assert all(np.isnan(ratio[peak]) for ratio in dQ_dN)
        assert abs(dN_dx[peak]) <= SLOPE_EPSILON

    def test_pure_state_capacity_slopes_vanish(self):
        curve = sweep((0, 0, 1), 0.0, 0.7, 701)
        _, (dC_dx, _), (dC_dN, _) = estimate_slopes(curve)
        assert np.abs(dC_dx).max() < 1e-9
        defined = dC_dN[~np.isnan(dC_dN)]
        assert defined.size and np.abs(defined).max() < 1e-6


class TestNoisePeak:
    """`_noise_peak` splits the noise into a rising and a falling branch."""

    def test_peak_is_the_first_noise_maximum(self, fig1_curves):
        for curve in fig1_curves.values():
            peak = _noise_peak(curve.noise)
            assert peak == int(np.argmax(curve.noise))
            assert 0 < peak < len(curve.noise) - 1
        # A flat top belongs to the falling branch; flat steps keep a branch.
        assert _noise_peak(np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.5])) == 3
        assert _noise_peak(np.array([1.0, 1.0, 1.0])) == 0

    def test_monotone_curve_is_single_branch(self):
        # The (0,0,0) noise peaks at x = 1/3.
        assert _noise_peak(sweep((0, 0, 0), 0.5, 0.7, 51).noise) == 0
        assert _noise_peak(sweep((0, 0, 0), 0.05, 0.3, 51).noise) == 50

    def test_branches_are_noise_monotone(self, fig1_curves):
        for curve in fig1_curves.values():
            noise = curve.noise
            peak = _noise_peak(noise)
            assert (np.diff(noise[: peak + 1]) >= 0).all()
            assert (np.diff(noise[peak:]) <= 0).all()

    @pytest.mark.parametrize("noise", [
        [1.0, 0.0, 1.0],
        [0.0, 2.0, 1.0, 2.0, 0.0],
        [0.0, 1.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0, 0.5, 0.5],
        [0.0, np.nan, 1.0],
    ])
    def test_refuses_more_than_two_branches(self, noise):
        with pytest.raises(ValueError, match="one peak"):
            _noise_peak(np.array(noise))

    def test_guard_accepts_the_physics(self):
        # Every distinct (a1^2 + a2^2, |a3|) pair of the default 11^3 grid
        # at 20001 steps on both windows (state_scan detects each once and
        # raises on a refusal), and the reference states at the CLI's
        # largest step count.
        for window in ((0.0, 0.7), (0.0, 1.0)):
            assert state_scan(11, 20001, *window).total_states == 515
        for state in FIG1_STATES:
            noise = sweep(state, 0.0, 0.7, MAX_STEPS).noise
            assert 0 < _noise_peak(noise) < MAX_STEPS - 1


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
        _, _, (_, dF_dN) = estimate_slopes(curve)
        for lo, hi, _ in report.fidelity:
            inside = dF_dN[(lo <= curve.x) & (curve.x <= hi)]
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


def old_bloch_ball_grid(resolution):
    """The triple loop that the array grid replaced, as (a1, a2, a3) tuples."""
    axis = (2 * np.arange(resolution) - (resolution - 1)) / (resolution - 1)
    grid = []
    for a1 in axis:
        for a2 in axis:
            for a3 in axis:
                if a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + BLOCH_NORM_TOL:
                    grid.append(BlochVector(float(a1), float(a2), float(a3)).as_tuple())
    return grid


def meshgrid_bloch_ball_grid(resolution):
    """The full-cube construction that the broadcast mask replaced."""
    axis = (2 * np.arange(resolution) - (resolution - 1)) / (resolution - 1)
    a1, a2, a3 = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
    inside = a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + BLOCH_NORM_TOL
    return np.column_stack((a1, a2, a3))[inside]


class TestStateScan:
    def test_small_scan(self):
        report = state_scan(5, 201)
        assert (0.0, 0.0, 0.0) in set(map(tuple, report.states.tolist()))
        assert ((report.states * report.states).sum(axis=1) <= 1.0 + 1e-12).all()
        assert report.capacity_enhanced_states == 0
        assert report.fidelity_enhanced_states > 0
        assert report.total_states == len(report.states) == len(report.pair)

    def test_grid_excludes_outside_ball(self):
        grid = bloch_ball_grid(3)
        assert len(grid) == 7  # center plus the six axis poles
        assert ((grid * grid).sum(axis=1) <= 1.0 + 1e-12).all()

    def test_grid_is_mirror_symmetric(self):
        # Mirrored states must share their exact (a1^2 + a2^2, |a3|) key.
        for resolution in (3, 4, 9, 11, 21):
            points = set(map(tuple, bloch_ball_grid(resolution).tolist()))
            for sign in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
                assert {tuple(s * a for s, a in zip(sign, p)) for p in points} == points
        keys = {(a1 * a1 + a2 * a2, abs(a3)) for a1, a2, a3 in bloch_ball_grid(11).tolist()}
        assert len(keys) == 58

    @pytest.mark.parametrize("resolution", range(2, 22))
    def test_grid_rows_equal_the_triple_loop(self, resolution):
        grid = bloch_ball_grid(resolution)
        want = np.array(old_bloch_ball_grid(resolution), dtype=float).reshape(-1, 3)
        assert grid.dtype == float and grid.shape == want.shape
        assert grid.tobytes() == want.tobytes()  # same values, signs and order

    @pytest.mark.parametrize("resolution", range(2, 22))
    def test_grid_equals_the_meshgrid_construction(self, resolution):
        grid = bloch_ball_grid(resolution)
        want = meshgrid_bloch_ball_grid(resolution)
        assert grid.dtype == want.dtype and grid.shape == want.shape
        assert grid.tobytes() == want.tobytes()

    def test_grid_peak_memory_is_under_half_the_full_cubes(self):
        # The meshgrid construction peaks at 8.6 MB (traced) at 51: three
        # n^3 float cubes and their (n^3, 3) stack, most of it outside the ball.
        tracemalloc.start()
        try:
            bloch_ball_grid(MAX_GRID_RESOLUTION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_593_326 // 2

    def test_grid_at_the_largest_resolution(self):
        # The CLI's bound on --grid-resolution is documented as 65,267 states.
        assert MAX_GRID_RESOLUTION == 51
        assert bloch_ball_grid(MAX_GRID_RESOLUTION).shape == (65_267, 3)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            state_scan(1, 101)

    def test_detection_runs_once_per_curve(self, monkeypatch):
        import qsr.resonance as resonance

        calls = []
        original = resonance._noise_peak

        def counted(noise):
            calls.append(noise)
            return original(noise)

        monkeypatch.setattr(resonance, "_noise_peak", counted)
        report = state_scan(3, 51)
        # 7 states, 3 distinct (a1^2 + a2^2, |a3|) pairs: one stack of 3 rows.
        assert report.total_states == 7
        assert [stack.shape for stack in calls] == [(3, 51)]
        assert_stacks_hold_first_rows(report, calls, 51,
                                      lambda state: sweep(state, 0.0, 0.7, 51).noise)

    def test_detection_calls_estimate_slopes_once_per_curve(self, monkeypatch):
        # The scan takes its slopes from one estimate_slopes call per stack.
        import qsr.resonance as resonance

        calls = []
        original = resonance.estimate_slopes

        def counted(curve):
            calls.append(np.stack((curve.noise, curve.coherent_info, curve.fidelity), axis=1))
            return original(curve)

        monkeypatch.setattr(resonance, "estimate_slopes", counted)
        report = state_scan(3, 51)
        assert report.total_states == 7

        def columns(state):
            curve = sweep(state, 0.0, 0.7, 51)
            return np.stack((curve.noise, curve.coherent_info, curve.fidelity))

        # Each pair's curve is swept on its first state in grid order.
        assert_stacks_hold_first_rows(report, calls, 51, columns)
        first = np.unique(report.pair, return_index=True)[1]
        assert report.states[first].tolist() == [[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                                                 [0.0, 0.0, 0.0]]
        assert report.states.tobytes() == bloch_ball_grid(3).tobytes()
        # Rows (-1,0,0), (0,-1,0), (0,0,-1), (0,0,0), (0,0,1), (0,1,0), (1,0,0).
        assert report.pair.tolist() == [0, 0, 1, 2, 1, 0, 0]

    @pytest.mark.parametrize("resolution", [2, 5])
    @pytest.mark.parametrize("steps", [0, 2, -3])
    def test_refuses_too_few_steps_before_sizing_the_stacks(self, resolution, steps):
        with pytest.raises(ValueError, match=f"at least 3 steps for slope estimates, got {steps}"):
            state_scan(resolution, steps)

    def test_refuses_a_window_outside_the_rates(self):
        # Checked before the grid, so even the empty grid of resolution 2 refuses it.
        with pytest.raises(ValueError, match="need 0 <= x_min < x_max <= 1"):
            state_scan(2, 11, 0.5, 0.2)

    def test_sweeps_each_distinct_pair_once(self, monkeypatch):
        calls = record_scan_sweeps(monkeypatch)
        report = state_scan(9, 701)
        assert report.total_states == 257
        # 33 pairs in stacks of 4096 // 701 = 5 rows.
        assert [len(stack) for stack in calls] == [5] * 6 + [3]
        assert_stacks_hold_first_rows(report, calls, 701, lambda state: state)

    def test_each_stack_is_one_solve(self, monkeypatch):
        # The scan stacks whole rows by the noise solve's own bound and rule,
        # so each of the 7 stacks of the 9^3 scan solves its cubic in one call.
        import qsr.two_pauli as two_pauli

        stacks = record_scan_sweeps(monkeypatch)
        solved = []

        def recorded(a1, a2, a3, x, _original=two_pauli._exchange_spectrum):
            solved.append(np.broadcast(a1, x).size)
            return _original(a1, a2, a3, x)

        monkeypatch.setattr(two_pauli, "_exchange_spectrum", recorded)
        state_scan(9, 701)
        assert len(stacks) == len(solved) == 7
        assert max(solved) <= two_pauli._SOLVE_BLOCK

    @pytest.mark.parametrize(
        "resolution, steps, window",
        [
            (5, 201, (0.0, 0.7)),
            (9, 701, (0.0, 0.7)),
            (11, 701, (0.0, 0.7)),
            (11, 701, (0.0, 0.4)),
            (11, 701, (0.0, 1.0)),
        ],
    )
    def test_shared_reports_equal_per_state_detection(self, resolution, steps, window):
        report = state_scan(resolution, steps, *window)
        grid = bloch_ball_grid(resolution)
        assert report.states.tobytes() == grid.tobytes() and report.pair.shape == (len(grid),)
        for state, pair in zip(grid, report.pair.tolist()):
            assert_shared_report(report.reports[pair],
                                 detect_enhancement(sweep(state, *window, steps)))

    @pytest.mark.parametrize("resolution, pairs", [(9, 33), (11, 58)])
    def test_one_report_per_integer_pair_in_first_row_order(self, resolution, pairs):
        report = state_scan(resolution, 701)
        labels, first_rows = np.unique(report.pair, return_index=True)
        assert len(report.reports) == pairs and labels.tolist() == list(range(pairs))
        assert (np.diff(first_rows) > 0).all()

    def test_integer_pairs_merge_what_float_keys_split(self, monkeypatch):
        calls = record_scan_sweeps(monkeypatch)
        report = state_scan(21, 701)
        assert len(report.reports) == 329
        assert_stacks_hold_first_rows(report, calls, 701, lambda state: state)
        a1, a2, a3 = report.states.T
        float_keys = {}
        for key, pair in zip(zip((a1 * a1 + a2 * a2).tolist(), np.abs(a3).tolist()),
                             report.pair.tolist()):
            float_keys.setdefault(pair, set()).add(key)
        # The float (a1^2 + a2^2, |a3|) keys split 18 integer pairs in two.
        assert sum(map(len, float_keys.values())) == 347
        merged = {pair for pair, keys in float_keys.items() if len(keys) > 1}
        assert len(merged) == 18
        for state, pair in zip(report.states, report.pair.tolist()):
            if pair in merged:
                assert_shared_report(report.reports[pair], detect_enhancement(sweep(state)))


def record_scan_sweeps(monkeypatch):
    """The state stack of every `two_pauli_metrics` call the scan makes."""
    import qsr.resonance as resonance

    calls = []

    def recorded(state, x, _original=resonance.two_pauli_metrics):
        calls.append(state)
        return _original(state, x)

    monkeypatch.setattr(resonance, "two_pauli_metrics", recorded)
    return calls


def assert_stacks_hold_first_rows(report, stacks, steps, row_of):
    """The stacks, concatenated, hold ``row_of`` each pair's first state
    exactly once, in first-row order, and no stack exceeds 4,096 samples."""
    first = np.unique(report.pair, return_index=True)[1]
    assert (np.diff(first) > 0).all()
    assert all(len(stack) * steps <= 4096 for stack in stacks)
    want = np.array([row_of(state) for state in report.states[first]])
    assert np.concatenate(stacks).tobytes() == want.tobytes()


def _pair_prefix(state):
    a1, a2, a3 = state.tolist()
    return re.escape(f"state {(a1, a2, a3)} with (a1^2 + a2^2, |a3|) = "
                     f"{(a1 * a1 + a2 * a2, abs(a3))}: ")


@pytest.mark.parametrize("resolution", [9, 21, None])
def test_stacked_detection_equals_the_per_row_calls(resolution):
    # The first row of each pair of a scan grid, or a stack of one state.
    if resolution is None:
        states = np.array([[0.3, 0.4, 0.2]])
    else:
        first = np.unique(state_scan(resolution, 701).pair, return_index=True)[1]
        states = bloch_ball_grid(resolution)[first]
    curve = sweep(states)
    reports = detect_enhancement(curve)
    assert type(reports) is tuple and len(reports) == len(states)
    slopes = estimate_slopes(curve)
    flat = [slopes[0], *slopes[1], *slopes[2]]
    assert all(column.shape == (len(states), 701) for column in flat)
    for row, state in enumerate(states):
        alone = sweep(BlochVector(*state))
        assert reports[row] == detect_enhancement(alone)
        own = estimate_slopes(alone)
        for column, want in zip(flat, [own[0], *own[1], *own[2]]):
            assert column[row].tobytes() == want.tobytes()


def test_stack_with_one_zig_zag_row_names_that_row():
    curve = sweep(np.array([[0.1, 0.2, 0.9], [0.3, 0.4, 0.2], [0.0, 0.0, 0.5]]), 0.0, 0.7, 51)
    curve.noise[1, 1::2] += 1.0
    with pytest.raises(_TurningNoise, match="one peak") as refused:
        detect_enhancement(curve)
    assert refused.value.row == 1


def test_scan_names_the_first_refused_pair_in_first_row_order(monkeypatch):
    # Pairs 12 and 20 of the 9^3 grid sit inside the third and the fifth
    # stack of 5; their noise is made to zig-zag.
    import qsr.resonance as resonance

    grid = bloch_ball_grid(9)
    first = np.unique(state_scan(9, 701).pair, return_index=True)[1]
    bad = [grid[first[k]].tolist() for k in (12, 20)]

    def turning(states, x, _original=resonance.two_pauli_metrics):
        curve = _original(states, x)
        for row, state in enumerate(curve.state.tolist()):
            if state in bad:
                curve.noise[row, 1::2] += 1.0
        return curve

    monkeypatch.setattr(resonance, "two_pauli_metrics", turning)
    with pytest.raises(ValueError, match="^" + _pair_prefix(grid[first[12]]) + "the noise must"):
        state_scan(9, 701)


def test_scan_names_its_first_pair_on_a_rate_grid_that_is_not_increasing():
    # Rounding repeats rates on a window this narrow.
    with pytest.raises(ValueError, match="^" + _pair_prefix(bloch_ball_grid(3)[0])
                       + "sweep samples must be strictly increasing in x$"):
        state_scan(3, 701, 0.5, 0.5000000000000001)


def test_scan_memory_stays_flat_over_the_pairs():
    # The traced peak of a scan above that of building its grid: 0.99 MB at
    # 21 (329 pairs) and at 31 (958 pairs), set at both by the solve of one
    # stack of _SOLVE_BLOCK samples; with one row per stack it is 0.34 and
    # 0.68 MB, the keying of the 4,169 and 14,147 states. One stack of all
    # pairs peaks 47 and 139 MB above it.
    excess = []
    for resolution in (21, 31):
        peaks = []
        for build in (bloch_ball_grid, lambda n: state_scan(n, 701)):
            tracemalloc.start()
            try:
                build(resolution)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        excess.append(peaks[1] - peaks[0])
    assert excess[1] < excess[0] + 500_000


def assert_shared_report(shared, own):
    """A report shared by a pair's rows equals a row's own detection."""
    assert shared.noise_peak_x == own.noise_peak_x
    for ours, alone in ((shared.capacity, own.capacity), (shared.fidelity, own.fidelity)):
        # Segment ends are grid rates and match exactly. The peak dQ/dN
        # divides differences of the noise, which the eigensolve gives to
        # ~1e-14 within a pair, so it matches to SHARED_SLOPE_RTOL (worst
        # seen: 1.2e-10 at 11/701/[0, 0.4]).
        assert [seg[:2] for seg in ours] == [seg[:2] for seg in alone]
        np.testing.assert_allclose(
            [seg[2] for seg in ours], [seg[2] for seg in alone],
            rtol=SHARED_SLOPE_RTOL, atol=0.0,
        )


def test_pure_states_never_register_capacity_enhancement():
    rng = np.random.default_rng(51)
    for _ in range(10):
        v = random_bloch_vector(rng, pure=True)
        curve = sweep(v, 0.0, 0.7, 351)
        assert detect_enhancement(curve).capacity == ()
        assert detect_multivalued(curve) == []


@pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 1.0, 2.0])
def test_pure_equatorial_states_register_no_capacity_segment_at_fine_steps(t):
    # An eigensolved noise spectrum gave 2, 3, 1, 2, 1 and 3 segments here:
    # rounding residue in C = S - N, not physics.
    curve = sweep((np.cos(t), np.sin(t), 0.0), 0.0, 0.7, 20001)
    assert detect_enhancement(curve).capacity == ()


def test_pure_state_registers_no_capacity_segment_on_a_narrow_window():
    # 24 rounding-level segments with an eigensolved noise spectrum.
    curve = sweep((1.0, 0.0, 0.0), 0.999999999999, 1.0, 701)
    assert detect_enhancement(curve).capacity == ()


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


def _loop_segments(curve, column):
    """Enhancement segments by the per-sample loop the array code replaced."""
    x, noise = curve.x.tolist(), curve.noise.tolist()
    values, h = column.tolist(), float(curve.x[1] - curve.x[0])
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


def _walk_curve(noise, rng):
    """A record around a synthetic noise column, with random capacity and
    fidelity columns."""
    n = len(noise)
    values = np.cumsum(rng.normal(size=n))
    return SweepCurve(np.zeros(3), np.linspace(0.0, 1.0, n), noise, values,
                      values[::-1], np.zeros(n), np.zeros((n, 3)))


def _unimodal_walk(rng, n, steps):
    """Noise that rises to one peak and falls after it, with step sizes
    drawn from ``steps`` (zero among them gives flat steps and flat tops)."""
    peak = int(rng.integers(0, n))
    up = rng.choice(steps, size=peak)
    down = -rng.choice(steps, size=n - 1 - peak)
    return np.cumsum(np.concatenate([[0.0], up, down]))


def _matches_loop_reference(curve):
    """Assert that detection reports what the loop references report, and
    return the multivalued intervals."""
    report = detect_enhancement(curve)
    assert report.capacity == _loop_segments(curve, curve.coherent_info)
    assert report.fidelity == _loop_segments(curve, curve.fidelity)
    intervals = detect_multivalued(curve)
    assert intervals == _loop_multivalued(curve)
    return intervals


@pytest.mark.parametrize("steps", [701, 20001])
def test_detection_matches_loop_reference_on_reference_states(steps):
    # The one fold between the two branches against the pairwise folds of
    # the loop reference.
    for state in FIG1_STATES:
        curve = sweep(state, 0.0, 0.7, steps)
        assert len(_loop_runs(curve.noise.tolist())) == 2
        assert _matches_loop_reference(curve)


def test_detection_matches_loop_reference_on_random_walks():
    # Quantised steps give ties between branch ends, flat steps and flat tops.
    rng = np.random.default_rng(53)
    folded = refused = 0
    for _ in range(500):
        n = int(rng.integers(3, 61))
        folded += bool(_matches_loop_reference(
            _walk_curve(_unimodal_walk(rng, n, [0.0, 0.5, 1.0]), rng)))
        # A walk that turns more than once, or falls before it rises, has
        # more than two monotone branches.
        noise = np.cumsum(rng.integers(-2, 3, size=n) * 0.5)
        runs = _loop_runs(noise.tolist())
        if len(runs) > 2 or (len(runs) == 2 and noise[runs[0][1]] < noise[0]):
            curve = _walk_curve(noise, rng)
            for detect in (detect_enhancement, detect_multivalued):
                with pytest.raises(ValueError, match="one peak"):
                    detect(curve)
            refused += 1
    assert folded >= 100 and refused >= 100


def test_array_detection_matches_loop_reference(fig1_curves):
    rng = np.random.default_rng(52)
    curves = list(fig1_curves.values())
    for _ in range(40):
        n = int(rng.integers(3, 300))
        steps = rng.choice([0.0, 1.0], size=n) * rng.uniform(size=n)
        curves.append(_walk_curve(_unimodal_walk(rng, n, steps), rng))
    # The falling branch stays at the peak value: the fold (N[-1], N[peak])
    # is empty.
    values = np.arange(3.0) ** 2
    curves.append(SweepCurve(np.zeros(3), np.linspace(0.0, 1.0, 3),
                             np.array([0.0, 1.0, 1.0]), values, values, np.zeros(3),
                             np.zeros((3, 3))))
    multivalued = sum(bool(_matches_loop_reference(curve)) for curve in curves)
    # The comparison covers curves that do have multivalued intervals.
    assert multivalued >= 10


def test_rounding_level_window_is_refused():
    # Rounding makes the noise of this pure state wander over the window.
    curve = sweep((-1, 0, 0), 0.0, 1e-12, 701)
    assert len(_loop_runs(curve.noise.tolist())) > 2
    for detect in (detect_enhancement, detect_multivalued):
        with pytest.raises(ValueError, match="one peak"):
            detect(curve)


def test_reports_are_deterministic():
    state = BlochVector(0.6, 0.3, 0.5)
    a = detect_enhancement(sweep(state, 0.0, 0.7, 701))
    b = detect_enhancement(sweep(state, 0.0, 0.7, 701))
    assert a == b


def test_capacity_segments_lie_in_the_wedge_or_near_the_poles():
    # Near a pure input C rises between the fold x_f and the edge x_u
    # (see test_capacity_wedge_edge_is_the_root_of_the_derivative_factor),
    # and the two edges meet at |a3| = 0.36583. Every capacity segment
    # below that lies in the wedge, widened by one grid cell; the only
    # others are the band near the poles, at |a3| = 0.933 on this grid.
    report = state_scan(31, 701)
    cell = 0.7 / 700
    first = np.unique(report.pair, return_index=True)[1]
    inside = 0
    for row, found in zip(first, report.reports):
        a3 = abs(report.states[row, 2])
        x_f = 4 * a3**2 / (1 + 3 * a3**2)
        x_u = (np.sqrt(2 * (1 - a3**4)) - (1 - a3**2)) / (1 + 3 * a3**2)
        for start, end, _ in found.capacity:
            if a3 < 0.36583:
                assert x_f - cell < start and end < x_u + cell, (report.states[row], start, end)
                inside += 1
            else:
                assert a3 >= 0.9, (report.states[row], start, end)
    assert inside == 16


def test_fidelity_detection_agrees_with_the_end_point_rule():
    # dF/dx = 1 - P/2 > 0, so dF/dN > 0 exactly on the rising branch of N,
    # which lies outside the fold only when N(x_min) < N(x_max). That rule,
    # from one two-rate call, marks 2,725 of the 21^3 grid's 4,169 states on
    # [0, 0.7]. Detection never marks a state the rule excludes; it misses
    # those whose rising stretch at x = 0 is thinner than one cell (224 of
    # them at 101 steps, 32 at 701), and agrees exactly at 7001.
    grid = bloch_ball_grid(21)
    pair, first = _pairs(grid, 21)
    ends = two_pauli_metrics(grid[first], [0.0, 0.7]).noise
    rule = ends[:, 0] < ends[:, 1]
    assert rule[pair].sum() == 2725
    for steps, enhanced in ((101, 2501), (701, 2693), (7001, 2725)):
        report = state_scan(21, steps)
        detected = np.array([bool(found.fidelity) for found in report.reports])
        assert np.array_equal(report.pair, pair)
        assert not (detected & ~rule).any(), steps
        assert report.fidelity_enhanced_states == enhanced
    assert np.array_equal(detected, rule)


def test_fidelity_rule_ends_are_monotone_in_p():
    # The end-point rule's boundary is one curve P*(|a3|), P = a1² + a2²:
    # at fixed |a3|, N(0) = h2((1 + |a3|)/2) does not depend on P, and
    # N(0.7) never rises with P, so the enhanced states at each |a3| are
    # those with P below one edge. 101 values of |a3| by 401 of P, up to
    # the pure state P = 1 - a3².
    a3 = np.linspace(0.0, 1.0, 101)[:, None]
    p = np.linspace(0.0, 1.0, 401) * (1.0 - a3 * a3)
    states = np.stack(np.broadcast_arrays(np.sqrt(p), 0.0, a3), axis=-1)
    noise = two_pauli_metrics(states.reshape(-1, 3), [0.0, 0.7]).noise.reshape(101, 401, 2)
    assert np.diff(noise[..., 1], axis=1).max() <= 0.0
    assert (noise[..., 0] == noise[:, :1, 0]).all()


def _fidelity_rule_edge(enhanced, lo, hi):
    """The edge of the end-point rule between lo, where it holds, and hi,
    where it does not, by 40 bisection steps."""
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if enhanced(mid) else (lo, mid)
    return lo


def test_fidelity_rule_boundary_p_star():
    # The rule N(0) < N(0.7) holds on the states (sqrt P, 0, a3) exactly
    # below one edge P*(|a3|), by the monotonicity in P pinned above.
    # Measured here: P* = 0.39798, 0.45361 and 0.59122 at |a3| = 0, 0.25
    # and 0.5, and every state up to the pure P = 1 - a3² is enhanced from
    # |a3| = 0.60698.
    def enhanced(p, a3):
        noise = two_pauli_metrics((math.sqrt(p), 0.0, a3), [0.0, 0.7]).noise
        return noise[0] < noise[1]

    for a3, p_star in ((0.0, 0.3980), (0.25, 0.4536), (0.5, 0.5912)):
        edge = _fidelity_rule_edge(lambda p: enhanced(p, a3), 0.0, 1.0 - a3 * a3)
        assert edge == pytest.approx(p_star, abs=5e-4)
    every_state = _fidelity_rule_edge(lambda a3: not enhanced(1.0 - a3 * a3, a3), 0.5, 0.75)
    assert every_state == pytest.approx(0.6070, abs=5e-4)


def monotonicity_extremes(resolution):
    """Over the (a1² + a2², |a3|) pairs of the resolution^3 grid, swept 64
    pairs at a time to bound the memory: the largest C over 801 rates on
    [0, 0.7729078], below the root x* of h2(x) = x, and the largest N step
    and the smallest C step over 2,301 rates on [0.77, 1]."""
    grid = bloch_ball_grid(resolution)
    states = grid[_pairs(grid, resolution)[1]]
    low, high = np.linspace(0.0, 0.7729078, 801), np.linspace(0.77, 1.0, 2301)
    c_max, n_step, c_step = -np.inf, -np.inf, np.inf
    for top in range(0, len(states), 64):
        stack = states[top : top + 64]
        c_max = max(c_max, float(two_pauli_metrics(stack, low).coherent_info.max()))
        curve = two_pauli_metrics(stack, high)
        n_step = max(n_step, float(np.diff(curve.noise).max()))
        c_step = min(c_step, float(np.diff(curve.coherent_info).min()))
    return c_max, n_step, c_step


def monotonicity_facts_hold(c_max, n_step, c_step):
    """The two facts behind "noise never enhances the capacity": C is at
    most 0 below x*, and above 0.77 the noise falls strictly while C never
    falls, so dC/dN <= 0 wherever C > 0."""
    return c_max <= 0.0 and n_step < 0.0 and c_step >= 0.0


def test_capacity_is_flat_below_x_star_and_falls_with_the_noise_above():
    # Measured here: 0.0, -1.47e-4 and 0.0. CI runs the same check on the
    # 3,831 pairs of the 51^3 grid.
    extremes = monotonicity_extremes(21)
    assert monotonicity_facts_hold(*extremes), extremes


def test_best_input_reaches_the_hashing_rate_and_the_best_fidelity():
    # The channel-level reading over the 329 pairs of the 21^3 grid: at each
    # rate the largest C is Q1(x) = max(0, 1 - H(x, h, h)), h = (1 - x)/2,
    # which the centre state attains above x* and the pure states (C = 0)
    # below it, and the best F is (1 + x)/2, on the pure equatorial states.
    # Measured here: all three within 4.4e-16.
    grid = bloch_ball_grid(21)
    states = grid[_pairs(grid, 21)[1]]
    assert len(states) == 329
    x = np.linspace(0.0, 1.0, 101)
    curve = two_pauli_metrics(states, x)
    weights = np.array([x, (1.0 - x) / 2.0, (1.0 - x) / 2.0])
    terms = np.zeros_like(weights)
    np.multiply(weights, np.log2(weights, where=weights > 0.0, out=terms), out=terms)
    hashing = 1.0 + terms.sum(axis=0)
    centre = np.flatnonzero((states == 0.0).all(axis=1))
    assert np.abs(curve.coherent_info.max(axis=0) - np.maximum(0.0, hashing)).max() <= 1e-12
    assert np.abs(curve.coherent_info[centre[0]] - hashing).max() <= 1e-12
    assert np.abs(curve.fidelity.max(axis=0) - (1.0 + x) / 2.0).max() <= 1e-12


def test_capacity_is_exactly_zero_at_x_zero_on_the_z_axis():
    # At x = 0 the output Bloch vector is (0, 0, -a3), and the noise is the
    # output entropy h2((1 + |a3|)/2). Computed by two routes they rounded
    # apart: C read -1.7e-16 on two of these states, and +1.1e-16 on two of
    # the 51^3 grid's. The noise is taken as the output entropy there, so C
    # is 0 with no rounding allowance.
    grid = bloch_ball_grid(21)
    axis = grid[(grid[:, 0] == 0.0) & (grid[:, 1] == 0.0)]
    assert len(axis) == 21
    curve = two_pauli_metrics(axis, [0.0, 0.25, 0.7])
    assert np.array_equal(curve.coherent_info[:, 0], np.zeros(len(axis)))
    assert np.array_equal(curve.noise[:, 0], curve.output_entropy[:, 0])
    for state in axis:
        assert two_pauli_metrics(state, [0.0]).coherent_info[0] == 0.0
