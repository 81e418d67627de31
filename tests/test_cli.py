import hashlib
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsr import cli, two_pauli
from qsr.cli import _CSV_ROWS, MAX_GRID_RESOLUTION, MAX_PRECISION, MAX_STEPS, main
from qsr.two_pauli import two_pauli_metrics
from qsr.validation import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCommand:
    def test_writes_csv_with_expected_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            capsys,
            "sweep", "--state", "0.1,0.2,0.9", "--x-range", "0,0.7",
            "--steps", "701", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,N,C,F,H_out,b1,b2,b3"
        assert len(lines) == 702
        assert "capacity enhancement: none" in stdout
        assert "fidelity enhancement: present" in stdout
        assert "noise peak: x =" in stdout
        assert "multivalued capacity N-intervals:" in stdout

    def test_known_row_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--state", "0,0,0", "--x-range", "0,1", "--steps", "3",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        x, noise, cap, fid, h_out, b1, b2, b3 = (float(v) for v in rows[2].split(","))
        assert (x, noise, cap, fid) == (0.5, 1.5, -0.5, 0.5)
        assert (h_out, b1, b2, b3) == (1.0, 0.0, 0.0, 0.0)

    def test_rejects_degenerate_range(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys,
            "sweep", "--state", "0,0,0", "--x-range", "1,1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "x_min < x_max" in stderr

    def test_rejects_malformed_state(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "sweep", "--state", "0.1,0.2")
        assert code == 1
        assert "a1,a2,a3" in stderr

    def test_rejects_unphysical_state(self, capsys):
        code, _, stderr = run(capsys, "sweep", "--state", "1,1,1")
        assert code == 1
        assert "unphysical" in stderr

    @pytest.mark.parametrize("state, message", [
        ("1e200,0,0", "unphysical Bloch vector: |a|^2 = inf > 1"),
        ("nan,0,0", "Bloch components must be finite"),
    ], ids=["huge", "nan"])
    def test_rejects_a_huge_or_non_finite_state_in_one_line(self, tmp_path, capsys,
                                                             state, message):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "sweep", f"--state={state}", "--out", str(out))
        assert code == 1
        assert stderr == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, _, stderr = run(
            capsys,
            "sweep", "--state", "0,0,0", "--out", str(blocker / "sweep.csv"),
        )
        assert code == 2
        assert "I/O error" in stderr

    def test_output_is_deterministic(self, tmp_path, capsys):
        args = ("sweep", "--state", "0.6,0.3,0.5", "--steps", "201")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_values_round_trip_at_precision(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--state", "0.3,0.4,0.2", "--steps", "51", "--out", str(out),
        )
        assert code == 0
        from qsr.resonance import sweep as run_sweep

        curve = run_sweep((0.3, 0.4, 0.2), 0.0, 0.7, 51)
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        columns = (curve.x, curve.noise, curve.coherent_info, curve.fidelity,
                   curve.output_entropy)
        for i, row in enumerate(rows):
            parsed = [float(v) for v in row.split(",")]
            for got, want in zip(parsed[:5], (column[i] for column in columns)):
                # 12 significant digits: relative error bounded by one
                # unit in the 12th digit
                assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11)

    def test_report_prints_close_range_ends_apart(self, tmp_path, capsys):
        # The noise rises over this window, so the fidelity rises with it.
        code, stdout, _ = run(
            capsys,
            "sweep", "--state=0.3,0.4,0.2", "--x-range", "0.1,0.100000001",
            "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 0
        assert "x in [0.1, 0.100000001], 701 steps" in stdout
        spans = re.findall(r"x ([0-9.e-]+)\.\.([0-9.e-]+) \(max", stdout)
        assert spans == [("0.1", "0.100000001")]
        for lo, hi in spans:
            assert lo != hi
            # The fewest digits that tell the ends apart: one fewer does not.
            digits = max(len(text.lstrip("0.")) for text in (lo, hi))
            assert digits > 6
            assert f"{float(lo):.{digits - 1}g}" == f"{float(hi):.{digits - 1}g}"

    @pytest.mark.parametrize("lo, hi, text", [
        (0.0182, 0.7, "0.0182..0.7"),
        (0.1234564, 0.1234566, "0.123456..0.123457"),
        (0.12345641, 0.12345649, "0.1234564..0.1234565"),
        (0.999999999999, 1.0, "0.999999999999..1"),
        (-0.0, 1e-300, "0..1e-300"),
        (0.5, 0.5, "0.5..0.5"),
    ])
    def test_range_ends_get_the_digits_they_need(self, lo, hi, text):
        assert cli._span(lo, hi) == text

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, stderr = run(capsys)
        assert code == 1
        assert "error:" in stderr


class TestFigure1Command:
    def test_writes_four_csvs_and_report(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "figure1", "--steps", "201", "--out", str(tmp_path)
        )
        assert code == 0
        for name in ("fig1a", "fig1b", "fig1c", "fig1d"):
            path = tmp_path / f"{name}.csv"
            assert path.exists()
            assert len(path.read_text(encoding="utf-8").splitlines()) == 202
            assert f"{name}:" in stdout
        # no reference state shows capacity enhancement
        assert stdout.count("capacity enhancement: none") == 4
        # the three states known to gain fidelity from added noise
        for name in ("fig1b", "fig1c", "fig1d"):
            block = stdout.split(f"\n{name}:")[1].split("\nfig1")[0]
            assert "fidelity enhancement: present" in block


class TestScanCommand:
    def test_scan_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(
            capsys,
            "scan", "--grid-resolution", "3", "--steps", "51", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "a1,a2,a3,cap_enh,fid_enh,noise_peak_x"
        assert len(lines) == 8  # header + 7 ball-grid states
        for line in lines[1:]:
            a1, a2, a3, cap, fid, _peak = line.split(",")
            assert float(a1) ** 2 + float(a2) ** 2 + float(a3) ** 2 <= 1.0 + 1e-12
            assert cap == "0"
            assert int(fid) >= 0
        assert "states with capacity enhancement: 0" in stdout

    def test_rejects_small_resolution(self, tmp_path, capsys):
        # At resolution 2 every grid point is a corner outside the ball.
        for resolution in ("1", "2"):
            out = tmp_path / "s.csv"
            code, _, stderr = run(
                capsys, "scan", "--grid-resolution", resolution, "--out", str(out)
            )
            assert code == 1
            assert "resolution" in stderr
            assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--state", "0,0,0", "--steps", "11"),
    ("figure1", "--steps", "11"),
    ("scan", "--grid-resolution", "3", "--steps", "11"),
])
def test_rejects_negative_precision(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, _, stderr = run(capsys, *argv, "--precision", "-1", "--out", str(out))
    assert code == 1
    assert "--precision" in stderr
    # rejected before any sweep runs or any output is written
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--state", "0,0,0"),
    ("figure1",),
    ("scan", "--grid-resolution", "3"),
])
def test_rejects_reversed_range_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, _, stderr = run(capsys, *argv, "--x-range", "0.5,0.2", "--out", str(out))
    assert code == 1
    assert "x_min < x_max" in stderr
    # no file, and for figure1 no directory, is left behind
    assert not out.exists()


@pytest.mark.parametrize("argv, option, form, text", [
    (("sweep",), "--state", "a1,a2,a3", "0,0,x"),
    (("sweep", "--state", "0,0,0"), "--x-range", "min,max", "0,0.5,0.7"),
    (("sweep", "--state", "0,0,0"), "--x-range", "min,max", "0,a"),
    (("figure1",), "--x-range", "min,max", "0,0.5,0.7"),
    (("figure1",), "--x-range", "min,max", "0,a"),
    (("scan", "--grid-resolution", "3"), "--x-range", "min,max", "0,0.5,0.7"),
    (("scan", "--grid-resolution", "3"), "--x-range", "min,max", "0,a"),
])
def test_rejects_malformed_comma_lists(tmp_path, capsys, argv, option, form, text):
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, option, text, "--out", str(out))
    assert code == 1
    assert stderr == f"error: {option} expects numbers '{form}', got '{text}'\n"
    assert stdout == "" and "Traceback" not in stderr
    assert not out.exists()


def test_figure1_failed_rename_leaves_no_temporary(tmp_path, capsys, monkeypatch):
    replace = cli.os.replace
    calls = []

    def fail_second_call(source, target):
        calls.append(source)
        if len(calls) == 2:
            raise OSError("rename refused")
        replace(source, target)

    monkeypatch.setattr(cli.os, "replace", fail_second_call)
    out = tmp_path / "out"
    code, _, stderr = run(capsys, "figure1", "--steps", "51", "--out", str(out))
    assert code == 2 and "rename refused" in stderr
    # the file renamed before the failure stays; no temporary is left
    assert sorted(path.name for path in out.iterdir()) == ["fig1a.csv"]


#: How each command names the curve it refuses; a sweep has only one.
REFUSED_CURVE = {
    "sweep": "",
    "figure1": "fig1a: ",
    "scan": "state (-1.0, 0.0, 0.0) with (a1^2 + a2^2, |a3|) = (1.0, 0.0): ",
}


@pytest.mark.parametrize("argv", [
    ("sweep", "--state=-1,0,0", "--x-range", "0,1e-12", "--steps", "701"),
    ("figure1", "--x-range", "0,1e-15"),
    ("scan", "--grid-resolution", "3", "--x-range", "0,1e-12"),
])
def test_refuses_noise_with_more_than_two_branches(tmp_path, capsys, argv):
    # Rounding makes the noise wander over these windows.
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: " + REFUSED_CURVE[argv[0]]) and "one peak" in stderr
    assert "Traceback" not in stderr and "noise is monotone" not in stdout
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_figure1_refusing_a_later_curve_leaves_no_csv(tmp_path, capsys, existing):
    # fig1a and fig1b are accepted over this window; it straddles fig1c's
    # noise peak, where the noise changes by less than rounding, so it turns
    # many times.
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    code, stdout, stderr = run(
        capsys, "figure1", "--x-range", "0.3378852873,0.3378852883", "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: fig1c: ") and "one peak" in stderr
    assert stdout == ""
    # a directory made by this call is removed; one that was there is kept, empty
    assert out.exists() == existing
    if existing:
        assert list(out.iterdir()) == []


def test_noise_off_the_eigensolver_exits_1_without_a_csv(tmp_path, capsys, monkeypatch):
    # The per-call spot check against LAPACK turns a route skewed by 1e-9
    # into exit 1.
    original = two_pauli._exchange_spectrum
    monkeypatch.setattr(two_pauli, "_exchange_spectrum",
                        lambda *args: original(*args) + np.array([1e-9, 0.0, -1e-9]))
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(capsys, "sweep", "--state", "0.3,0.4,0.2", "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: closed-form noise is ") and "Traceback" not in stderr
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv, option", [
    (("sweep", "--state", "0,0,0", "--steps", str(MAX_STEPS + 1)), "--steps"),
    (("figure1", "--steps", str(MAX_STEPS + 1)), "--steps"),
    (("scan", "--steps", str(MAX_STEPS + 1)), "--steps"),
    (("scan", "--grid-resolution", str(MAX_GRID_RESOLUTION + 1)), "--grid-resolution"),
    (("sweep", "--state", "0,0,0", "--steps", "10**9"), "--steps"),
    (("scan", "--precision", str(MAX_PRECISION + 1)), "--precision"),
])
def test_rejects_out_of_range_options_up_front(tmp_path, capsys, monkeypatch, argv, option):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started before the size check")

    monkeypatch.setattr(cli, "sweep", no_evaluation)
    monkeypatch.setattr(cli, "state_scan", no_evaluation)
    out = tmp_path / "out"
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert option in stderr and "expected an integer in" in stderr
    assert not out.exists()


def test_bounds_admit_the_sizes_in_use():
    # 20001-step sweeps (perfbench fine-sweep) and 21^3 grids (the full
    # agreement test) must stay within reach of the CLI.
    assert MAX_STEPS >= 20001
    assert MAX_GRID_RESOLUTION >= 21


def test_sweep_csv_writes_no_negative_zero(tmp_path, capsys):
    # b3 = a3 (2x - 1) is -0.5 * 0.0 = -0.0 at x = 0.5
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--state=0,0,-0.5", "--x-range", "0,1", "--steps", "3",
        "--out", str(out),
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[2] == "0.5,1.40563906223,-0.40563906223,0.5,1,0,0,0"
    assert all(field != "-0" for row in rows for field in row.split(","))


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, stdout, _ = run(capsys, "validate")
        assert code == 0
        assert "all 6 checks passed" in stdout
        assert "FAIL" not in stdout
        # the negative control proves the completeness detector fires
        assert "broken-channel negative control" in stdout
        assert "completeness violation detected" in stdout

    def test_validate_exits_3_when_a_check_fails(self, capsys, monkeypatch):
        results = [CheckResult("broken", False, "off by 1"), CheckResult("sound", True, "ok")]
        monkeypatch.setattr(cli, "run_all", lambda: results)
        code, stdout, _ = run(capsys, "validate")
        assert code == 3
        assert stdout.splitlines() == ["FAIL  broken: off by 1", "PASS  sound: ok",
                                       "1 of 2 checks failed"]


def test_sweep_csv_rows_match_per_value_format(tmp_path):
    edge_values = np.array([
        # -0, subnormals, huge values and values that round up at some precision
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
        0.999999999999999, 9.9999999999995, 0.5, 2.5, 1.0 / 3.0, -0.95, 123456.5,
        float(np.nextafter(1.0, 2.0)), 0.1, 7.0, -12345678901234567.0,
        # decade edges
        0.99999999999995, 9.99999999999e-5, 1e-4, 1e-5, 10.0,
        # binary ties
        0.125, 0.375, 2.5e-1,
        # either side of 1e-11, the smallest magnitude rounded in numpy at 12 digits
        float(np.nextafter(1e-11, 0.0)), 1e-11, float(np.nextafter(1e-11, 1.0)),
        # near-ties whose float64 product |v| 10^k is a half-integer that rint
        # rounds the wrong way: three at precision 12, two at 15
        0.7228541843385, 0.3789177883335, 0.7472578897934999,
        0.8180810625156025, 0.4558484508329035,
    ])
    out = tmp_path / "sweep.csv"
    # The edge values repeat down each column. _CSV_ROWS // 4 + 1 rows end
    # inside the first block; _CSV_ROWS + 1 and 2 * _CSV_ROWS + 1 rows cross
    # its edge once and twice.
    for rows in (len(edge_values), _CSV_ROWS // 4 + 1, _CSV_ROWS + 1, 2 * _CSV_ROWS + 1):
        values = np.resize(edge_values, rows)
        curve = SimpleNamespace(
            x=values, noise=values[::-1], coherent_info=np.roll(values, 3),
            fidelity=np.roll(values, 5), output_entropy=np.roll(values, 7),
            output_bloch=np.column_stack((np.roll(values, 1), -values, np.roll(values, 11))),
        )
        table = np.column_stack((curve.x, curve.noise, curve.coherent_info, curve.fidelity,
                                 curve.output_entropy, curve.output_bloch))
        for precision in range(MAX_PRECISION + 1):
            cli._write_lines(out, cli._sweep_lines(curve, precision))
            lines = out.read_text(encoding="utf-8").split("\n")
            assert lines[0] == "x,N,C,F,H_out,b1,b2,b3"
            want = [",".join(cli._format(v, precision) for v in row) for row in table.tolist()]
            assert lines[1:] == want + [""]


def test_sweep_csv_buffers_leak_no_stale_bytes(tmp_path, monkeypatch):
    # The rows cross the edge of a block of _CSV_ROWS rows twice and end in
    # a short block. The first block prints long texts (negatives, exponents
    # and fallbacks), the later ones short texts, and the buffers start out
    # as junk, so a slot that some block leaves unwritten shows in the text.
    make_buffers = cli._csv_buffers

    def junk_buffers(values, precision):
        buffers = make_buffers(values, precision)
        for buffer in buffers:
            buffer.view(np.uint8).fill(ord("7"))
        return buffers

    monkeypatch.setattr(cli, "_csv_buffers", junk_buffers)
    step = _CSV_ROWS
    long_texts = [-0.123456789012345, -3.25e-7, 1.5e-5, -9.87654321e-12, math.nan,
                  -math.inf, math.inf, 1e300, -2.0 / 3.0]
    values = np.concatenate((np.resize(long_texts, step), np.resize([0.0, 0.5, 1.0], step + 5)))
    curve = SimpleNamespace(x=values, noise=-values, coherent_info=values, fidelity=-values,
                            output_entropy=values, output_bloch=np.column_stack((values,) * 3))
    table = np.column_stack((values, -values, values, -values, values, values, values, values))
    out = tmp_path / "sweep.csv"
    for precision in range(MAX_PRECISION + 1):
        cli._write_lines(out, cli._sweep_lines(curve, precision))
        want = [",".join(cli._format(v, precision) for v in row) for row in table.tolist()]
        assert out.read_text(encoding="utf-8").split("\n")[1:] == want + [""]


def test_sweep_csv_blocks_share_one_set_of_buffers(monkeypatch):
    # Every block of one CSV is formatted from and into the first block's
    # arrays: allocated per block, they take fresh pages every block.
    calls = []
    kernel = cli._csv_text

    def record(rows, precision, *buffers):
        calls.append((rows, *buffers))
        return kernel(rows, precision, *buffers)

    monkeypatch.setattr(cli, "_csv_text", record)
    curve = two_pauli_metrics((0.3, 0.4, 0.2), np.linspace(0.0, 0.7, 2 * _CSV_ROWS + 1))
    assert "".join(cli._sweep_lines(curve, 12)).count("\n") == 2 * _CSV_ROWS + 2
    assert len(calls) == 3
    for arrays in calls[1:]:
        assert all(np.shares_memory(new, first) for new, first in zip(arrays, calls[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=24))
# The edges of the range numpy formats, 1e-4 <= |v| < 10, and values that
# round up onto them.
@example([float(np.nextafter(1e-4, 0.0)), 1e-4, float(np.nextafter(1e-4, 1.0))])
@example([float(np.nextafter(10.0, 0.0)), 10.0, float(np.nextafter(10.0, 20.0))])
@example([9.99999999999995e-5, -1e-4, 9.9999999999995])
def test_csv_text_matches_format_for_any_double(values):
    # nan, inf, subnormals and -0 included, at every precision the CLI accepts
    for precision in range(MAX_PRECISION + 1):
        want = ",".join(cli._format(v, precision) for v in values) + "\n"
        buffers = cli._csv_buffers(len(values), precision)
        assert cli._csv_text(np.array([values]), precision, *buffers) == want


def test_scan_csv_is_written_in_blocks_of_rows():
    # _CSV_ROWS + 1 states give one full block and one single-row block.
    rows = _CSV_ROWS + 1
    report = SimpleNamespace(
        states=np.column_stack((np.arange(rows), np.zeros(rows), np.full(rows, -0.5))),
        reports=(SimpleNamespace(capacity=(), fidelity=((0.0, 0.1, 2.0),), noise_peak_x=None),),
        pair=np.zeros(rows, dtype=np.intp),
    )
    chunks = list(cli._scan_lines(report, 12))
    assert chunks[0] == "a1,a2,a3,cap_enh,fid_enh,noise_peak_x\n"
    assert [chunk.count("\n") for chunk in chunks[1:]] == [_CSV_ROWS, 1]
    assert "".join(chunks[1:]) == "".join(f"{i},0,-0.5,0,1,\n" for i in range(_CSV_ROWS + 1))


def test_scan_csv_matches_the_percent_template():
    # The scan CSV's former formatter, a % template per row, is the
    # reference: negative, zero and -0.0 components, exponent forms, and a
    # pair with no noise peak, over a block edge, at every precision.
    components = [-0.0, 0.0, -0.5, 0.123456789012345, -3.25e-5, 1e-4, -0.999999999999999,
                  1.0, 2.0 / 3.0, -1e-7, 0.05]
    rows = _CSV_ROWS + 3
    report = SimpleNamespace(
        states=np.resize(components, (rows, 3)),
        reports=(SimpleNamespace(capacity=(), fidelity=((0.0, 0.1, 2.0),), noise_peak_x=None),
                 SimpleNamespace(capacity=((0.1, 0.2, 1.0),) * 2, fidelity=(),
                                 noise_peak_x=0.123456789012345)),
        pair=np.arange(rows) % 2,
    )
    for precision in range(MAX_PRECISION + 1):
        template = ",".join([f"%.{precision}g"] * 3) + ",%s"
        tails = [f"{len(r.capacity)},{len(r.fidelity)},"
                 + ("" if r.noise_peak_x is None else cli._format(r.noise_peak_x, precision))
                 + "\n" for r in report.reports]
        want = "".join(template % (*row, tails[p])
                       for row, p in zip((report.states + 0.0).tolist(), report.pair.tolist()))
        chunks = list(cli._scan_lines(report, precision))
        assert chunks[0] == "a1,a2,a3,cap_enh,fid_enh,noise_peak_x\n"
        assert "".join(chunks[1:]) == want


def test_sweep_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # Formatting every row at once makes the traced peak grow with the rows,
    # about 4x from the first size to the second.
    peaks = []
    for rows in (2 * _CSV_ROWS + 1, 8 * _CSV_ROWS + 1):
        curve = two_pauli_metrics((0.3, 0.4, 0.2), np.linspace(0.0, 0.7, rows))
        tracemalloc.start()
        try:
            cli._write_lines(tmp_path / "sweep.csv", cli._sweep_lines(curve, 12))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


#: SHA-256 of the CLI's outputs, output paths in stdout replaced by "<out>".
#: A change that alters any output updates these and lists every changed
#: field in CHANGES.md. argparse lays out the --help texts; these were
#: recorded with Python 3.11.
RECORDED_DIGESTS = {
    "figure1 stdout": "d2df854b0be272a9b02736b12858b3503f7ab02ecdbf2ff13ee7f121f1a5e3ce",
    "figure1/fig1a.csv": "b0ef52a8e50c96dda07acff82f4a7a1f1520283767475f2b00db1932720ecd62",
    "figure1/fig1b.csv": "ad8bf9f592929d7e9fecdff4946cf9621d9226ca4b0ddaccc5747fc5af03ca7e",
    "figure1/fig1c.csv": "9f1a08ddad057301c4eee9919601ed20d596d3d13c11943837cffaf0512f3f35",
    "figure1/fig1d.csv": "c6ad1153859cae8f998456adad2b833fc6765d337476f7038b056c3066174e17",
    "scan stdout": "8fd5367da02374bf8dcd5155ff5ec5da77a3b0733183d98acb005ee477910f2d",
    "scan.csv": "6cd7722491faf14d61362c143cf9de17812be39fd70cea51ca7723ea7d25a139",
    "scan default stdout": "6f7fe74ce14db15b160aea9a7e176e71e7b6462ce19d6721494837597eef5000",
    "scan-default.csv": "7fc5dc4d783182ef1265c27483d1c1bfc7a6e8a01dcdae79574868bab9cd9e20",
    "scan 21 stdout": "06a1d12aebd2a63734448842a6fb31f07cf3449535ce38dc35f64bfcdddbda94",
    "scan-21.csv": "3aaee1f1e3f6b878d7171e35defc2f6509001ea9dfa5c1f968e6e0ca2220cf52",
    "validate stdout": "aaff761413047ccc6684dd42863bbd7dea1c789a8ee78b2652e0f5178ff10df8",
    "sweep --help": "6798aeb77df47786067a07a8343b980dbb6bd775826012bb8866e4a762c62f8f",
    "figure1 --help": "a08571021cda83c226340d20271b534db002a742315a3f886d809e854291df3f",
    "scan --help": "a3660081d72db67f00b016ce017176606c17efce45fb47ed24c5887c06dd983c",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for label, argv in (
        ("figure1", ["figure1", "--steps", "701", "--out", str(tmp_path / "figure1")]),
        ("scan", ["scan", "--grid-resolution", "9", "--steps", "701",
                  "--out", str(tmp_path / "scan.csv")]),
        # The default 11^3 grid, whose 515 states share 58 distinct
        # (a1^2 + a2^2, |a3|) pairs.
        ("scan default", ["scan", "--steps", "701", "--out", str(tmp_path / "scan-default.csv")]),
        # The 21^3 grid, the smallest whose float (a1^2 + a2^2, |a3|) keys
        # split integer pairs: 347 float keys, 329 pairs.
        ("scan 21", ["scan", "--grid-resolution", "21", "--steps", "701",
                     "--out", str(tmp_path / "scan-21.csv")]),
        ("validate", ["validate"]),
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        digests[f"{label} stdout"] = _sha256(stdout.replace(str(tmp_path), "<out>").encode())
    for path in sorted(tmp_path.rglob("*.csv")):
        digests[path.relative_to(tmp_path).as_posix()] = _sha256(path.read_bytes())
    for command in ("sweep", "figure1", "scan"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        digests[f"{command} --help"] = _sha256(capsys.readouterr().out.encode())
    assert digests == RECORDED_DIGESTS
