"""Benchmark of the qsr package: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ball-scan --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

One run is a closed loop with a single client: it repeats the workload's
pass, each pass starting when the previous one ended, and starts no pass
that would end after ``--seconds`` (it always makes at least one). With
``--trace 0`` it reports the end-to-end metrics, with times scaled to a
reference host speed by `hostclock`; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics. Set-up time
is measured in fresh processes. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. See
README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
#: Calibration chunks run after each set-up probe to scale it to reference speed.
SETUP_CHUNKS = 7
SETUP_TIMEOUT_S = 60

#: The keys of `workloads.WORKLOADS`, repeated here so that parsing the
#: arguments imports no numpy before a set-up probe starts its clock.
WORKLOAD_NAMES = ("ball-scan", "fine-sweep", "oracle-check")

#: Environment variables that set the BLAS and OpenMP thread counts.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: validation checks reported as validation.<name>_s (span time per pass).
VALIDATION_CHECKS = ("two_pauli_completeness", "broken_channel_detected",
                     "exchange_matrix_properties", "analytic_generic_agreement",
                     "dilation_oracle", "pure_state_collapse")

#: resonance functions whose self time counts as detection.
DETECTION = ("detect_enhancement", "detect_multivalued", "estimate_slopes",
             "monotone_branches")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_qsr():
    """Import qsr and its public submodules from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "qsr", "__init__.py")):
        raise BenchError(f"no qsr package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qsr
    import tracing

    if not os.path.abspath(qsr.__file__).startswith(SRC + os.sep):
        raise BenchError(f"qsr imported from {qsr.__file__}, not from {SRC}")
    tracing.package_namespaces(qsr)
    return qsr


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing qsr and building the workload's inputs.

    Prints the raw time and the time at reference host speed, scaled by
    calibration chunks run right after.
    """
    start = time.perf_counter()
    import_qsr()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, WORK_ROOT)
    raw = time.perf_counter() - start
    import hostclock

    chunk = statistics.median(hostclock.chunk_s() for _ in range(SETUP_CHUNKS))
    print(repr(raw), repr(raw * hostclock.REFERENCE_CHUNK_S / chunk))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, reference-speed) set-up times of `SETUP_PROBES` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        raw, reference = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(reference)))
    return times


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "seed": seed,
    }


def run_passes(qsr, workload, seconds: float, tracer=None) -> dict:
    """Closed loop of passes; with a tracer, untraced and traced passes alternate.

    Without a tracer each pass runs under a `hostclock.HostClock`, whose
    reference-speed times are kept as well; with one, no pass is calibrated,
    so traced and untraced passes compare like with like.
    """
    import hostclock
    from workloads import csv_bytes

    kinds = (False, True) if tracer is not None else (False,)
    walls = {kind: [] for kind in kinds}
    cpus = {kind: [] for kind in kinds}
    reference = {"wall": [], "cpu": [], "slowdown": []}
    ops, written, pure, cycles = [], [], None, []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in kinds:
            for path in workload.outputs():
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            gc.collect()
            if tracer is None:
                with hostclock.HostClock() as clock:
                    pass_ops = workload.run_pass(qsr)
                wall, cpu = clock.raw_s, clock.raw_cpu_s
                scale = clock.reference_s / wall
                reference["wall"].append(wall * scale)
                reference["cpu"].append(cpu * scale)
                reference["slowdown"].append(clock.slowdown)
            else:
                with tracer if traced else contextlib.nullcontext():
                    t0, c0 = time.perf_counter(), time.process_time()
                    pass_ops = workload.run_pass(qsr)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            walls[traced].append(wall)
            cpus[traced].append(cpu)
            written.append(csv_bytes(workload.outputs()))
            try:
                pure = workload.check(qsr, pass_ops)
            except (OSError, ValueError, IndexError) as exc:
                for op in pass_ops:
                    op.fail(f"output check raised {exc!r}")
            ops.extend(pass_ops)
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + max(cycles) > seconds:
            break
    return {"walls": walls, "cpus": cpus, "reference": reference, "ops": ops,
            "csv_bytes": statistics.median(written), "pure_capacity_segments": pure}


def end_to_end(workload, runs: dict, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; times are medians at reference host speed."""
    wall = statistics.median(runs["reference"]["wall"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(reference for _, reference in setup), "s"),
        "wall_s": (wall, "s"),
        "samples_per_s": (workload.samples / wall, "1/s"),
        "cpu_s": (statistics.median(runs["reference"]["cpu"]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, workload, runs: dict) -> dict:
    n = len(runs["walls"][True])
    traced_wall = sum(runs["walls"][True])

    def per_call_us(key):
        calls = tracer.calls(key)
        return tracer.span_s(key) / calls * 1e6 if calls else 0.0

    detect_s = sum(tracer.self_s(f"resonance.{name}") for name in DETECTION) / n
    multivalued = tracer.calls("resonance.detect_multivalued") / n
    pure = runs["pure_capacity_segments"]
    metrics = {
        "linalg.eig_calls": (tracer.calls("linalg.hermitian_eigenvalues") / n, "count"),
        "linalg.eig_us": (per_call_us("linalg.hermitian_eigenvalues"), "us"),
        "linalg.self_s": (tracer.layer_self_s("linalg") / n, "s"),
        "two_pauli.samples": (tracer.calls("two_pauli.two_pauli_metrics") / n, "count"),
        "two_pauli.sample_us": (per_call_us("two_pauli.two_pauli_metrics"), "us"),
        "two_pauli.self_s": (tracer.layer_self_s("two_pauli") / n, "s"),
        "channel.calls": (tracer.layer_calls("channel") / n, "count"),
        "channel.spectrum_entropy_calls": (tracer.calls("channel.spectrum_entropy") / n, "count"),
        "channel.self_s": (tracer.layer_self_s("channel") / n, "s"),
        "resonance.sweep_self_s": (tracer.self_s("resonance.sweep") / n, "s"),
        "resonance.detect_self_s": (detect_s, "s"),
        "resonance.detect_us_per_point": (
            detect_s / workload.points * 1e6 if workload.points else 0.0, "us"),
        "resonance.multivalued_per_curve": (
            multivalued / workload.curves if workload.curves else 0.0, "ratio"),
        "resonance.pure_capacity_segments": (-1 if pure is None else pure, "count"),
        "validation.self_s": (tracer.layer_self_s("validation") / n, "s"),
    }
    for check in VALIDATION_CHECKS:
        metrics[f"validation.{check}_s"] = (tracer.span_s(f"validation.check_{check}") / n, "s")
    metrics.update({
        "cli.self_s": (tracer.layer_self_s("cli") / n, "s"),
        "cli.csv_bytes": (runs["csv_bytes"], "B"),
        "trace.overhead": (statistics.median(runs["walls"][True])
                           / statistics.median(runs["walls"][False]) - 1.0, "ratio"),
        "trace.coverage": (tracer.total_self_s() / traced_wall, "ratio"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = loadavg()
    setup = measure_setup(name, seed)
    qsr = import_qsr()
    import tracing
    from workloads import WORKLOADS

    env = environment(seed)
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        tracer = tracing.Tracer(qsr) if trace else None
        runs = run_passes(qsr, workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    env.update(loadavg_start=load_start, loadavg_end=loadavg(),
               passes={"untraced": len(runs["walls"][False]),
                       "traced": len(runs["walls"].get(True, []))})
    if not trace:
        env.update(raw_setup_s=statistics.median(raw for raw, _ in setup),
                   raw_wall_s=statistics.median(runs["walls"][False]),
                   raw_cpu_s=statistics.median(runs["cpus"][False]),
                   host_slowdown=[round(v, 4) for v in runs["reference"]["slowdown"]])
    metrics = per_layer(tracer, workload, runs) if trace else end_to_end(workload, runs, setup)

    failed = [op for op in runs["ops"] if not op.ok]
    for op in failed:
        print(f"FAILED {name}: {op.name}: {op.detail}", file=sys.stderr)
    print(json.dumps({"workload": name, "environment": env}))
    for traced, walls in runs["walls"].items():
        kind = "traced" if traced else "untraced"
        print(f"{name}: {kind} pass walls {' '.join(f'{w:.3f}' for w in walls)} s (raw)")
    if not trace:
        walls = runs["reference"]["wall"]
        print(f"{name}: pass walls {' '.join(f'{w:.3f}' for w in walls)} s (reference speed)")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    print(f"{name}: failed_ops = {len(failed) / len(runs['ops']):.6g} "
          f"({len(failed)} of {len(runs['ops'])} operations)")
    return {
        "correct": not failed,
        "attempted": len(runs["ops"]),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all_workloads(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            probe_setup(args.workload, args.seed)
            return 0
        if args.workload == "all":
            result = run_all_workloads(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
