import math
from types import SimpleNamespace

import numpy as np
import pytest

from qsr import cli
from qsr.cli import MAX_GRID_RESOLUTION, MAX_PRECISION, MAX_STEPS, main


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


def test_sweep_csv_rows_match_per_value_format():
    # -0, subnormals, huge values and values that round up at some precision
    values = np.array([
        -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
        0.999999999999999, 9.9999999999995, 0.5, 2.5, 1.0 / 3.0, -0.95, 123456.5,
        float(np.nextafter(1.0, 2.0)), 0.1, 7.0, -12345678901234567.0,
    ])
    curve = SimpleNamespace(
        x=values, noise=values[::-1], coherent_info=np.roll(values, 3),
        fidelity=np.roll(values, 5), output_entropy=np.roll(values, 7),
        output_bloch=np.column_stack((np.roll(values, 1), -values, np.roll(values, 11))),
    )
    rows = np.column_stack((curve.x, curve.noise, curve.coherent_info, curve.fidelity,
                            curve.output_entropy, curve.output_bloch))
    for precision in range(MAX_PRECISION + 1):
        lines = cli._sweep_csv(curve, precision).splitlines()
        assert lines[0] == "x,N,C,F,H_out,b1,b2,b3"
        want = [",".join(cli._format(v, precision) for v in row) for row in rows.tolist()]
        assert lines[1:] == want
