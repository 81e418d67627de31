"""Command-line front end: sweeps, the four reference figures, the state
scan, and the validation suite, all emitting CSV plus a short report.

Exit codes: 0 success, 1 bad arguments or any input the library refuses
(a ``ValueError``), 2 I/O failure, 3 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .channel import BlochVector
from .resonance import DEFAULT_STEPS, DEFAULT_X_MAX, DEFAULT_X_MIN, MIN_STEPS
from .resonance import detect_enhancement, detect_multivalued, state_scan, sweep
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

#: Largest --steps accepted: a sweep holds its eight columns and one set of
#: fixed-size CSV buffers, about 43 MB peak process memory at this size.
MAX_STEPS = 100_001

#: Largest --grid-resolution accepted: 65,267 ball states.
MAX_GRID_RESOLUTION = 51


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _numbers(text: str, option: str, form: str) -> list[float]:
    """The numbers of a comma-separated option value, as many as ``form`` names."""
    parts = text.split(",")
    if len(parts) == len(form.split(",")):
        with contextlib.suppress(ValueError):
            return [float(part) for part in parts]
    raise ValueError(f"{option} expects numbers {form!r}, got {text!r}")


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


def _write_lines(path: str, chunks) -> None:
    """Write the text chunks to ``path`` as they come, so that a file's text
    is never held whole."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(chunks)


#: Rows per block of either CSV: a block's values go through one _csv_text
#: call, into buffers made once per CSV. Made per block, they took fresh
#: pages every block, and larger blocks were slower.
_CSV_ROWS = 1024

#: The four ASCII digits of each of 0..9999, one uint32 per entry.
_DIGITS = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"),
                   axis=-1).view(np.uint32).ravel()

#: 10^k for k = 0..22, each an exact double.
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])

_PREFIX = np.frombuffer(b"-0.000", np.uint8)[:, None]


def _csv_buffers(values: int, precision: int):
    """The two byte buffers _csv_text writes for up to ``values`` values at
    ``precision``: their text, value by value, and the mask of the slots
    kept."""
    size = (max(precision, 1) + 8) * values
    return np.empty(size, np.uint8), np.empty(size, bool)


def _csv_text(rows: np.ndarray, precision: int, text, keep) -> str:
    """The text that _format gives each value of ``rows``, with ',' between
    the columns and a newline after each row. ``text`` and ``keep`` come
    from _csv_buffers for at least ``rows.size`` values. A call writes
    every slot it reads back, so one pair serves every block of a CSV.

    Numpy writes exactly %g's fixed-point forms, 1e-4 <= |v| < 10 at
    p <= 15, and zero as 0. Such a v with e = floor(log10|v|) is rounded as
    s = |v| 10^k, k = p - 1 - e <= 18: one correctly rounded product, as
    10^k is exact. Below 2^52, where s stays, every half-integer and power
    of ten is a double, which that rounding can reach but not cross. So
    when s is more than s 2^-51 from the nearest half-integer and from
    10^(p-1), and below 10^p - 1/2, rint(s) is the p-digit mantissa that
    %g rounds to; a log10 one decade off puts s outside that range. Every
    other value goes through _format: nan, inf, every exponent form, ties,
    decade edges, and all values at p >= 16.

    Each value takes p + 8 slots of ``text``, one more than %g's longest
    text, -d.ddde-308: the sign, '0.' and three zeros, the digits with a
    point after the first, then the separator. They are written through a
    transposed view, one slot for every value at once. A slot a value does
    not use holds 0, and the text of a value that falls back replaces its
    slots but the last. ``keep`` marks the nonzero slots, and one
    compaction drops the rest.
    """
    values = rows.ravel()
    n = len(values)
    p = max(precision, 1)
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 10.0) & (p <= 15)
    exponent = np.floor(np.log10(magnitude, where=fast, out=np.zeros(n)))
    scaled = np.where(fast, magnitude, 0.0) * _POW10.take((p - 1 - exponent).astype(np.intp),
                                                            mode="clip")
    margin = scaled * 2.0**-51
    fast &= ((np.abs(scaled - np.floor(scaled) - 0.5) > margin)
             & (scaled - _POW10[p - 1] > margin) & (scaled < _POW10[p] - 0.5))
    mantissa = np.rint(np.where(fast, scaled, 0.0)).astype(np.int64)

    # The mantissa's base-10^4 places, most significant first, give its p
    # digits through the table.
    places = -(-p // 4)
    groups = np.empty((n, places), np.intp)
    for i in range(places - 1):
        unit = 10 ** (4 * (places - 1 - i))
        groups[:, i] = mantissa // unit
        mantissa = mantissa - groups[:, i] * unit
    groups[:, -1] = mantissa
    digits = np.ascontiguousarray(_DIGITS[groups].view(np.uint8).T[4 * places - p :])
    # A digit after the first is kept while a nonzero digit follows it.
    tail = digits[:0:-1] != ord("0")
    for i in range(1, p - 1):
        tail[i] |= tail[i - 1]
    tail = tail[::-1]
    small = exponent < 0

    slots = p + 8
    text = text[: n * slots]
    chars = text.reshape(n, slots).T
    used = np.empty((6, n), bool)
    np.less(values, 0.0, out=used[0])
    used[1:3] = small
    np.less(exponent, -1.0 - np.arange(3)[:, None], out=used[3:6])
    np.multiply(used, _PREFIX, out=chars[:6])
    chars[6] = digits[0]
    chars[7] = 0
    if p > 1:
        np.multiply(~small & tail[0], np.uint8(ord(".")), out=chars[7])
    np.multiply(digits[1:], tail, out=chars[8 : p + 7])
    chars[-1] = ord(",")
    chars[-1, rows.shape[1] - 1 :: rows.shape[1]] = ord("\n")

    fallback = np.flatnonzero(~fast & (magnitude != 0.0))
    if fallback.size:
        texts = [_format(v, precision) for v in values[fallback].tolist()]
        chars[:-1, fallback] = np.array(texts, dtype=f"S{slots - 1}").view(np.uint8).reshape(
            len(fallback), slots - 1).T
    keep = np.not_equal(text, 0, out=keep[: n * slots])
    return np.compress(keep, text).tobytes().decode("ascii")


def _sweep_lines(curve, precision: int):
    """The text of a sweep CSV: a header, then one row per rate, one string
    per block of _CSV_ROWS rows. Each block is copied into one float block,
    made once per CSV, and formatted by _csv_text."""
    yield "x,N,C,F,H_out,b1,b2,b3\n"
    columns = (curve.x, curve.noise, curve.coherent_info, curve.fidelity,
               curve.output_entropy)
    block = np.empty((_CSV_ROWS, 8))
    buffers = _csv_buffers(block.size, precision)
    for start in range(0, len(curve.x), _CSV_ROWS):
        stop = min(start + _CSV_ROWS, len(curve.x))
        rows = block[: stop - start]
        np.concatenate([column[start:stop, None] for column in columns]
                       + [curve.output_bloch[start:stop]], axis=1, out=rows)
        yield _csv_text(rows, precision, *buffers)


def _scan_lines(report, precision: int):
    """The text of a scan CSV: a header, then one row per grid state, one
    string per block of _CSV_ROWS rows. _csv_text formats a block's
    a1,a2,a3, and each row ends with its pair's verdict."""
    yield "a1,a2,a3,cap_enh,fid_enh,noise_peak_x\n"
    tails = [f",{len(r.capacity)},{len(r.fidelity)},"
             + ("" if r.noise_peak_x is None else _format(r.noise_peak_x, precision)) + "\n"
             for r in report.reports]
    buffers = _csv_buffers(3 * _CSV_ROWS, precision)
    for start in range(0, len(report.states), _CSV_ROWS):
        lines = _csv_text(report.states[start : start + _CSV_ROWS], precision, *buffers)
        pairs = report.pair[start : start + _CSV_ROWS].tolist()
        yield "".join(line + tails[p] for line, p in zip(lines.splitlines(), pairs))


def _digits(lo: float, hi: float) -> int:
    """The fewest significant digits, at least 6, that print two ends of a
    range apart (6 when none do, as for equal values)."""
    for digits in range(6, MAX_PRECISION + 1):
        if _format(lo, digits) != _format(hi, digits):
            return digits
    return 6


def _span(lo: float, hi: float) -> str:
    """'lo..hi' with 6 significant digits, or as many more as the two ends
    need to print apart."""
    digits = _digits(lo, hi)
    return f"{_format(lo, digits)}..{_format(hi, digits)}"


def _describe(quantity: str, segments: tuple) -> str:
    """Human-readable line for one quantity's segments."""
    if not segments:
        return f"{quantity} enhancement: none"
    parts = ", ".join(
        f"x {_span(lo, hi)} (max dQ/dN {_format(top, 6)})" for lo, hi, top in segments
    )
    word = "segment" if len(segments) == 1 else "segments"
    return f"{quantity} enhancement: present ({len(segments)} {word}: {parts})"


def _curve_summary(curve) -> list[str]:
    """The report lines of one curve."""
    report = detect_enhancement(curve)
    intervals = detect_multivalued(curve)
    lines = [_describe("capacity", report.capacity), _describe("fidelity", report.fidelity)]
    if report.noise_peak_x is not None:
        lines.append(f"noise peak: x = {_format(report.noise_peak_x, 6)}")
    else:
        lines.append("noise peak: none (noise is monotone over the sweep)")
    if intervals:
        spans = ", ".join(_span(lo, hi) for lo, hi in intervals)
        lines.append(f"multivalued capacity N-intervals: {spans}")
    else:
        lines.append("multivalued capacity N-intervals: none")
    return lines


def cmd_sweep(args) -> int:
    state = BlochVector(*_numbers(args.state, "--state", "a1,a2,a3"))
    x_min, x_max = _numbers(args.x_range, "--x-range", "min,max")
    curve = sweep(state, x_min, x_max, args.steps)
    summary = _curve_summary(curve)
    _write_lines(args.out, _sweep_lines(curve, args.precision))
    digits = _digits(x_min, x_max)
    print(f"sweep: state {args.state}, x in [{x_min:.{digits}g}, {x_max:.{digits}g}], "
          f"{args.steps} steps")
    print(f"wrote {args.out} ({args.steps} rows)")
    for line in summary:
        print(line)
    return 0


def cmd_figure1(args) -> int:
    """Sweep the four states one at a time and write each CSV under a
    temporary name. Only once the last curve is accepted are all four
    renamed and their reports printed, so a refused curve leaves no CSV and
    a failed rename leaves no temporary."""
    x_min, x_max = _numbers(args.x_range, "--x-range", "min,max")
    made_dir = False
    written = []  # (temporary path, path) of each CSV begun so far
    report = []
    try:
        for name, state in FIGURE1_STATES:
            curve = sweep(state, x_min, x_max, args.steps)
            try:
                summary = _curve_summary(curve)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
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
        for temporary, path in written:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)
        if made_dir:
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    print("\n".join(report))
    return 0


def cmd_scan(args) -> int:
    x_range = _numbers(args.x_range, "--x-range", "min,max")
    report = state_scan(args.grid_resolution, args.steps, *x_range)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
