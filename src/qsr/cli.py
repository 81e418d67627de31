"""Command-line front end: sweeps, the four reference figures, the state
scan, and the validation suite, all emitting CSV plus a short report.

Exit codes: 0 success, 1 bad arguments, 2 I/O failure, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np

from .channel import BlochVector
from .resonance import DEFAULT_STEPS, DEFAULT_X_MAX, DEFAULT_X_MIN, MIN_STEPS
from .resonance import detect_enhancement, detect_multivalued, state_scan, sweep
from .two_pauli import _BLOCK
from .validation import run_all

#: The four reference input states swept in the figure1 command.
FIGURE1_STATES = (
    ("fig1a", BlochVector(0.1, 0.2, 0.9)),
    ("fig1b", BlochVector(0.3, 0.4, 0.2)),
    ("fig1c", BlochVector(0.6, 0.3, 0.5)),
    ("fig1d", BlochVector(0.1, 0.2, 0.3)),
)

DEFAULT_PRECISION = 12

#: Largest --precision accepted: 17 significant digits round-trip any double.
MAX_PRECISION = 17

#: Largest --steps accepted: a sweep holds its eight columns and blocks of
#: fixed size, about 42 MB peak process memory at this size.
MAX_STEPS = 100_001

#: Largest --grid-resolution accepted: about 69,000 ball states.
MAX_GRID_RESOLUTION = 51


class _CliError(Exception):
    """Bad command-line input; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _parse_state(text: str) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise _CliError(f"--state expects 'a1,a2,a3', got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _CliError(f"--state components must be numbers, got {text!r}") from None
    try:
        return BlochVector(*values)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(f"--x-range expects 'min,max', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _CliError(f"--x-range bounds must be numbers, got {text!r}") from None


def _bounded(low: int, high: int):
    """Parser for an integer option in low..high.

    Checking at parse time rejects a bad value before any sweep runs or
    any file is written.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer in {low}..{high}, got {text!r}"
            )
        return value

    return parse


def _format(value: float, precision: int) -> str:
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as is.
    return f"{value + 0.0:.{precision}g}"


def _write_lines(path: str, lines) -> None:
    """Write newline-terminated lines to ``path``, _BLOCK lines per write,
    so that a file's text is never held whole."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        while block := "".join(itertools.islice(lines, _BLOCK)):
            handle.write(block)


def _sweep_lines(curve, precision: int):
    """The lines of a sweep CSV: a header, then one row per rate, formatted
    one block of _BLOCK rows at a time."""
    yield "x,N,C,F,H_out,b1,b2,b3\n"
    columns = (curve.x, curve.noise, curve.coherent_info, curve.fidelity,
               curve.output_entropy, curve.output_bloch)
    # One %-template per row writes what _format writes for each value.
    template = ",".join([f"%.{precision}g"] * 8) + "\n"
    for start in range(0, len(curve.x), _BLOCK):
        rows = np.column_stack([column[start : start + _BLOCK] for column in columns])
        yield from (template % tuple(row) for row in (rows + 0.0).tolist())


def _scan_lines(report, precision: int):
    """The lines of a scan CSV: a header, then one row per grid state."""
    yield "a1,a2,a3,cap_enh,fid_enh,noise_peak_x\n"
    for entry in report.entries:
        fields = [_format(a, precision) for a in entry.state.as_tuple()]
        fields += [str(len(entry.capacity)), str(len(entry.fidelity))]
        peak = "" if entry.noise_peak_x is None else _format(entry.noise_peak_x, precision)
        yield ",".join(fields + [peak]) + "\n"


def _describe(quantity: str, segments: tuple) -> str:
    """Human-readable line for one quantity's segments (6 digits suffice)."""
    if not segments:
        return f"{quantity} enhancement: none"
    parts = ", ".join(
        f"x {_format(lo, 6)}..{_format(hi, 6)} (max dQ/dN {_format(top, 6)})"
        for lo, hi, top in segments
    )
    word = "segment" if len(segments) == 1 else "segments"
    return f"{quantity} enhancement: present ({len(segments)} {word}: {parts})"


def _curve_summary(curve) -> list[str]:
    """The report lines of one curve; a curve that detection refuses is bad input."""
    try:
        report = detect_enhancement(curve)
        intervals = detect_multivalued(curve)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    lines = [_describe("capacity", report.capacity), _describe("fidelity", report.fidelity)]
    if report.noise_peak_x is not None:
        lines.append(f"noise peak: x = {_format(report.noise_peak_x, 6)}")
    else:
        lines.append("noise peak: none (noise is monotone over the sweep)")
    if intervals:
        spans = ", ".join(f"{_format(lo, 6)}..{_format(hi, 6)}" for lo, hi in intervals)
        lines.append(f"multivalued capacity N-intervals: {spans}")
    else:
        lines.append("multivalued capacity N-intervals: none")
    return lines


def _sweep(state, x_min: float, x_max: float, steps: int):
    """Sweep one state; a window or step count the library rejects is bad input."""
    try:
        return sweep(state, x_min, x_max, steps)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def cmd_sweep(args) -> int:
    state = _parse_state(args.state)
    x_min, x_max = _parse_range(args.x_range)
    curve = _sweep(state, x_min, x_max, args.steps)
    summary = _curve_summary(curve)
    _write_lines(args.out, _sweep_lines(curve, args.precision))
    print(f"sweep: state {args.state}, x in [{x_min:g}, {x_max:g}], {args.steps} steps")
    print(f"wrote {args.out} ({args.steps} rows)")
    for line in summary:
        print(line)
    return 0


def cmd_figure1(args) -> int:
    """Sweep the four states one at a time and write each CSV under a
    temporary name. Only once the last curve is accepted are all four
    renamed and their reports printed, so a refused curve leaves no CSV."""
    x_min, x_max = _parse_range(args.x_range)
    made_dir = False
    written = []  # (temporary path, path) of each CSV begun so far
    report = []
    try:
        for name, state in FIGURE1_STATES:
            curve = _sweep(state, x_min, x_max, args.steps)
            try:
                summary = _curve_summary(curve)
            except _CliError as exc:
                raise _CliError(f"{name}: {exc}") from None
            # Made after detection has accepted a curve, so bad input leaves none.
            if not made_dir and not os.path.isdir(args.out):
                os.makedirs(args.out)
                made_dir = True
            path = os.path.join(args.out, f"{name}.csv")
            written.append((os.path.join(args.out, f".{name}.csv.tmp"), path))
            _write_lines(written[-1][0], _sweep_lines(curve, args.precision))
            state_text = ",".join(_format(v, 6) for v in state.as_tuple())
            report.append(f"{name}: state {state_text} -> {path}")
            report += [f"  {line}" for line in summary]
            del curve  # else the next sweep's peak memory holds this curve too
    except BaseException:
        for temporary, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
        if made_dir:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    for temporary, path in written:
        os.replace(temporary, path)
    print("\n".join(report))
    return 0


def cmd_scan(args) -> int:
    try:
        report = state_scan(args.grid_resolution, args.steps, *_parse_range(args.x_range))
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    _write_lines(args.out, _scan_lines(report, args.precision))
    print(f"scan: {report.total_states} states, grid resolution {args.grid_resolution}")
    print(f"wrote {args.out}")
    print(f"states with capacity enhancement: {report.capacity_enhanced_states}")
    print(f"states with fidelity enhancement: {report.fidelity_enhanced_states}")
    return 0


def cmd_validate(args) -> int:
    results = run_all()
    failures = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed")
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qsr",
        description="Noisy-qubit channel sweeps and noise-enhancement analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The sweep options shared by sweep, figure1 and scan.
    swept = argparse.ArgumentParser(add_help=False)
    swept.add_argument("--x-range", default=f"{DEFAULT_X_MIN:g},{DEFAULT_X_MAX:g}",
                       help="rate range 'min,max' (default %(default)s)")
    swept.add_argument("--steps", type=_bounded(MIN_STEPS, MAX_STEPS), default=DEFAULT_STEPS,
                       help="grid points per sweep (default %(default)s)")
    swept.add_argument("--precision", type=_bounded(0, MAX_PRECISION), default=DEFAULT_PRECISION,
                       help="significant digits in the CSV (default %(default)s)")

    sweep_p = sub.add_parser("sweep", parents=[swept],
                             help="sweep one input state over the flipping rate")
    sweep_p.add_argument("--state", required=True, help="Bloch vector 'a1,a2,a3'")
    sweep_p.add_argument("--out", default="sweep.csv", help="output CSV path")
    sweep_p.set_defaults(func=cmd_sweep)

    fig_p = sub.add_parser("figure1", parents=[swept], help="sweep the four reference states")
    fig_p.add_argument("--out", default=".", help="output directory for fig1a..fig1d.csv")
    fig_p.set_defaults(func=cmd_figure1)

    # Resolution 2 would leave only the corners, all outside the ball.
    scan_p = sub.add_parser("scan", parents=[swept], help="scan a Bloch-ball grid for enhancement")
    scan_p.add_argument("--grid-resolution", type=_bounded(3, MAX_GRID_RESOLUTION), default=11,
                        help="points per Bloch axis (default %(default)s)")
    scan_p.add_argument("--out", default="scan.csv", help="output CSV path")
    scan_p.set_defaults(func=cmd_scan)

    val_p = sub.add_parser("validate", help="run the built-in validation suite")
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
