"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload is one client in a closed loop: `run_pass` makes its calls
into qsr one after another and returns their raw outputs; `check` then
turns them into one verdict per operation (a CLI call or a validation
check), outside the timed region. Sample, curve and point counts come from
the input sizes, never from the program's outputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import traceback

import numpy as np

X_MIN, X_MAX = 0.0, 0.7

#: The four reference states of `qsr figure1` (paper, figure 1a-d).
FIGURE1_STATES = {
    "fig1a": (0.1, 0.2, 0.9),
    "fig1b": (0.3, 0.4, 0.2),
    "fig1c": (0.6, 0.3, 0.5),
    "fig1d": (0.1, 0.2, 0.3),
}

#: Acceptance criterion 6: the reference states with fidelity enhancement.
FIDELITY_ENHANCED = ("fig1b", "fig1c", "fig1d")

#: The equatorial pure state whose spurious capacity segments are counted.
PURE_STATE = (1.0, 0.0, 0.0)

#: Generic-route agreement limit for sampled CSV rows.
CSV_TOL = 1e-10
CSV_ROW_STRIDE = 1000


def ball_grid(resolution: int) -> list[tuple[float, float, float]]:
    """Grid over [-1, 1]^3 clipped to the unit ball, a1 outermost."""
    axis = np.linspace(-1.0, 1.0, resolution)
    return [
        (float(a1), float(a2), float(a3))
        for a1 in axis
        for a2 in axis
        for a3 in axis
        if a1 * a1 + a2 * a2 + a3 * a3 <= 1.0 + 1e-12
    ]


class Op:
    """One operation of a pass and its verdict."""

    def __init__(self, name: str, ok: bool, detail: str = "", output=None):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.output = output

    def fail(self, detail: str) -> None:
        self.ok = False
        self.detail = detail


def call_cli(qsr, argv: list[str]) -> Op:
    """Run `qsr <argv>` in-process, capturing its output and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qsr.cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=err)
    op = Op("qsr " + argv[0], code == 0, output=out.getvalue())
    if code != 0:
        op.detail = f"exit code {code}: {err.getvalue().strip()[-500:]}"
    return op


def csv_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def capacity_segments(report: str) -> int | None:
    """Capacity-enhancement segment count from a sweep report, None if absent."""
    if re.search(r"capacity enhancement: none", report):
        return 0
    match = re.search(r"capacity enhancement: present \((\d+) segment", report)
    return int(match.group(1)) if match else None


def check_sweep_csv(qsr, path: str, state, steps: int) -> str | None:
    """Compare sampled CSV rows with the generic Kraus route; None when all agree.

    Rows at fixed indices (every `CSV_ROW_STRIDE`-th and the last) are
    compared on x, N, C and F. The reference values come from
    `entropy_exchange`, `coherent_information` and `entangled_fidelity` on
    `make_two_pauli(x)`.
    """
    channel_mod, two_pauli = qsr.channel, qsr.two_pauli
    xs = np.linspace(X_MIN, X_MAX, steps)
    wanted = set(range(0, steps, CSV_ROW_STRIDE)) | {steps - 1}
    rho = channel_mod.bloch_to_density(channel_mod.BlochVector(*state))
    rows = 0
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if header[:4] != ["x", "N", "C", "F"]:
            return f"{path}: unexpected header {header[:4]}"
        for index, line in enumerate(handle):
            rows += 1
            if index not in wanted:
                continue
            x_csv, n_csv, c_csv, f_csv = (float(v) for v in line.split(",")[:4])
            x = float(xs[index])
            channel = two_pauli.make_two_pauli(x)
            gaps = (
                abs(x_csv - x),
                abs(n_csv - channel_mod.entropy_exchange(channel, rho)),
                abs(c_csv - channel_mod.coherent_information(channel, rho)),
                abs(f_csv - channel_mod.entangled_fidelity(channel, rho)),
            )
            if max(gaps) > CSV_TOL:
                return f"{path}: row {index} deviates from the generic route by {max(gaps):.3e}"
    if rows != steps:
        return f"{path}: {rows} rows, expected {steps}"
    return None


class BallScan:
    """`qsr scan --grid-resolution 9 --steps 701`: 257 states x 701 rates.

    Deterministic by design: the grid is the CLI's input, so the seed does
    not touch it.
    """

    resolution = 9
    steps = 701

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "scan.csv")
        self.grid = ball_grid(self.resolution)
        self.argv = ["scan", "--grid-resolution", str(self.resolution),
                     "--steps", str(self.steps), "--out", self.out]
        self.curves = len(self.grid)
        self.samples = self.points = self.curves * self.steps

    def run_pass(self, qsr) -> list[Op]:
        return [call_cli(qsr, self.argv)]

    def outputs(self) -> list[str]:
        return [self.out]

    def check(self, qsr, ops: list[Op]) -> int | None:
        """Check the scan CSV; return the cap_enh count of the pure state."""
        (op,) = ops
        if not op.ok:
            return None
        with open(self.out, encoding="utf-8") as handle:
            header = handle.readline().strip()
            rows = [line.strip().split(",") for line in handle if line.strip()]
        if header != "a1,a2,a3,cap_enh,fid_enh,noise_peak_x":
            op.fail(f"unexpected scan header {header!r}")
            return None
        states = [tuple(float(v) for v in row[:3]) for row in rows]
        if len(states) != len(self.grid) or any(
            max(abs(u - v) for u, v in zip(s, g)) > 1e-9 for s, g in zip(states, self.grid)
        ):
            op.fail(f"{len(states)} scan rows, expected one per grid state ({len(self.grid)})")
            return None
        capacity = [int(row[3]) for row in rows]
        fidelity = sum(1 for row in rows if int(row[4]) > 0)
        if any(capacity):
            op.fail(f"{sum(1 for c in capacity if c)} states show capacity enhancement")
        elif 2 * fidelity <= len(rows):
            op.fail(f"only {fidelity} of {len(rows)} states show fidelity enhancement")
        return capacity[self.grid.index(PURE_STATE)]


class FineSweep:
    """`qsr figure1 --steps 20001` plus `qsr sweep --steps 20001` on the pure
    state 1,0,0 and on one mixed state drawn from the seed: 6 long curves."""

    steps = 20001

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        radius = 0.3 + 0.6 * rng.uniform()
        self.mixed = tuple(round(float(v), 6) for v in radius * direction)
        self.fig_dir = os.path.join(workdir, "figure1")
        self.pure_out = os.path.join(workdir, "pure.csv")
        self.mixed_out = os.path.join(workdir, "mixed.csv")
        steps = str(self.steps)
        self.argvs = [
            ["figure1", "--steps", steps, "--out", self.fig_dir],
            # "--state=..." keeps a leading minus sign from reading as an option.
            ["sweep", "--state=" + ",".join(repr(v) for v in PURE_STATE),
             "--steps", steps, "--out", self.pure_out],
            ["sweep", "--state=" + ",".join(repr(v) for v in self.mixed),
             "--steps", steps, "--out", self.mixed_out],
        ]
        self.curves = len(FIGURE1_STATES) + 2
        self.samples = self.points = self.curves * self.steps

    def run_pass(self, qsr) -> list[Op]:
        return [call_cli(qsr, argv) for argv in self.argvs]

    def outputs(self) -> list[str]:
        figures = [os.path.join(self.fig_dir, f"{name}.csv") for name in FIGURE1_STATES]
        return figures + [self.pure_out, self.mixed_out]

    def check(self, qsr, ops: list[Op]) -> int | None:
        """Check verdicts and sampled rows; return the pure state's segments."""
        figure1, pure, mixed = ops
        if figure1.ok:
            blocks = re.split(r"^(fig1[a-d]): ", figure1.output, flags=re.M)[1:]
            reports = dict(zip(blocks[::2], blocks[1::2]))
            problem = None
            for name, state in FIGURE1_STATES.items():
                report = reports.get(name, "")
                if capacity_segments(report) != 0:
                    problem = f"{name}: capacity enhancement reported (criterion 5)"
                elif name in FIDELITY_ENHANCED and "fidelity enhancement: present" not in report:
                    problem = f"{name}: no fidelity enhancement (criterion 6)"
                else:
                    path = os.path.join(self.fig_dir, f"{name}.csv")
                    problem = check_sweep_csv(qsr, path, state, self.steps)
                if problem:
                    figure1.fail(problem)
                    break
        for op, path, state in ((pure, self.pure_out, PURE_STATE),
                                (mixed, self.mixed_out, self.mixed)):
            if op.ok:
                problem = check_sweep_csv(qsr, path, state, self.steps)
                if problem:
                    op.fail(problem)
        return capacity_segments(pure.output) if pure.ok else None


class OracleCheck:
    """`validation.run_all(seed)`, then `check_analytic_generic_agreement(9, 41)`
    and `check_dilation_oracle(rng, 2000)` with an rng from the same seed."""

    agreement_grid, agreement_rates = 9, 41
    dilation_trials = 2000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # (state, channel) evaluations per pass, from the checks' input sizes.
        # run_all's defaults: 101 rates for completeness, 1 broken channel,
        # 50 random channels, the 7^3 ball grid x 21 rates, 100 dilation
        # pairs and 50 pure states x 101 rates.
        run_all = 101 + 1 + 50 + len(ball_grid(7)) * 21 + 100 + 50 * 101
        self.samples = (run_all + len(ball_grid(self.agreement_grid)) * self.agreement_rates
                        + self.dilation_trials)
        self.curves = self.points = 0

    def run_pass(self, qsr) -> list[Op]:
        validation = qsr.validation
        try:
            results = validation.run_all(self.seed)
            rng = np.random.default_rng(self.seed)
            results += [
                validation.check_analytic_generic_agreement(
                    self.agreement_grid, self.agreement_rates),
                validation.check_dilation_oracle(rng, self.dilation_trials),
            ]
        except Exception:
            return [Op("validation", False, traceback.format_exc()[-500:])]
        return [Op(result.name, bool(result.passed), result.detail) for result in results]

    def outputs(self) -> list[str]:
        return []

    def check(self, qsr, ops: list[Op]) -> int | None:
        return 0


WORKLOADS = {
    "ball-scan": BallScan,
    "fine-sweep": FineSweep,
    "oracle-check": OracleCheck,
}
