"""Tests of the benchmark's own machinery: the tracer, the host clock and the no-source exit."""

import inspect
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def qsr():
    return run.import_qsr()


def bindings(package):
    return {
        (module.__name__, name): value
        for module in tracing.package_namespaces(package)
        for name, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_self_times_sum_to_span_total(qsr):
    tracer = tracing.Tracer(qsr)
    with tracer:
        qsr.resonance.state_scan(2, 11)
        qsr.two_pauli.two_pauli_metrics((0.1, 0.2, 0.3), 0.4)
    assert tracer.root_s > 0.0
    assert tracer.total_self_s() == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-12)
    # Outermost spans: one scan and one direct sample.
    assert tracer.calls("resonance.state_scan") == 1
    states = len(qsr.resonance.bloch_ball_grid(2))
    assert tracer.calls("resonance.sweep") == states
    # Cross-module (resonance -> two_pauli) and intra-module
    # (two_pauli_metrics -> analytic_output_entropy) calls are both seen.
    assert tracer.calls("two_pauli.two_pauli_metrics") == states * 11 + 1
    assert tracer.calls("two_pauli.analytic_output_entropy") == states * 11 + 1
    assert tracer.calls("linalg.hermitian_eigenvalues") == states * 11 + 1
    assert tracer.layer_self_s("two_pauli") <= tracer.span_s("two_pauli.two_pauli_metrics")


def test_originals_restored_after_tracing(qsr):
    before = bindings(qsr)
    tracer = tracing.Tracer(qsr)
    with tracer:
        traced = bindings(qsr)
        assert traced[("qsr.linalg", "hermitian_eigenvalues")] is not before[
            ("qsr.linalg", "hermitian_eigenvalues")]
        # One wrapper per function, bound at every namespace that binds it.
        assert traced[("qsr", "hermitian_eigenvalues")] is traced[
            ("qsr.two_pauli", "hermitian_eigenvalues")]
    with pytest.raises(ZeroDivisionError):
        with tracer:
            raise ZeroDivisionError
    after = bindings(qsr)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, tracing.ORIGINAL_ATTR) for value in after.values())


def test_missing_names_report_zero(qsr):
    tracer = tracing.Tracer(qsr)
    with tracer:
        pass
    assert tracer.calls("linalg.no_such_function") == 0
    assert tracer.span_s("no_such_module.f") == 0.0
    assert tracer.self_s("linalg.hermitian_eigenvalues") == 0.0
    assert tracer.layer_self_s("no_such_module") == 0.0


def test_report_parsing():
    assert workloads.capacity_segments("capacity enhancement: none\n") == 0
    assert workloads.capacity_segments(
        "capacity enhancement: present (3 segments: x 7e-05..0.000105)") == 3
    assert workloads.capacity_segments("") is None
    assert len(workloads.ball_grid(9)) == 257


def test_scaled_time_counts_slow_slices_less():
    ref = hostclock.REFERENCE_CHUNK_S
    # Window [0, 10] with chunks at [2, 3] and [6, 7]: 8 s outside them.
    chunks = [(2.0, 2.0 + ref), (6.0, 6.0 + ref)]
    outside = 10.0 - 2 * ref
    assert hostclock.scaled_time(0.0, 10.0, chunks, [ref] * 3) == pytest.approx(outside)
    slow = [(2.0, 2.0 + 2 * ref), (6.0, 6.0 + 2 * ref)]
    assert hostclock.scaled_time(0.0, 10.0, slow, [2 * ref] * 3) == pytest.approx(
        (10.0 - 4 * ref) / 2)
    # Without chunks in the window, the tail alone sets the scale.
    assert hostclock.scaled_time(0.0, 1.0, [], [ref / 2] * 3) == pytest.approx(2.0)


def test_host_clock_excludes_chunks_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        end = time.perf_counter() + 3.5 * hostclock.PERIOD_S
        while time.perf_counter() < end:
            hostclock.kernel(10)
    assert len(clock._chunks) >= 2
    assert clock.raw_s > 0.0 and clock.raw_cpu_s > 0.0
    assert clock.raw_s < clock._end - clock._start
    assert clock.reference_s == pytest.approx(clock.raw_s / clock.slowdown, rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
