"""Benchmark of the mslwave package: four seeded, oracle-checked workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload escape --seed 1 --seconds 20 --trace 0

``--workload`` is one of escape, bands, piezo, stability, or ``all``
(each workload in turn, in its own interpreter). With ``--trace 0`` the
run reports the end-to-end metrics: the workload runs one call after
another (a closed loop with one caller, no worker threads) for
``--seconds`` seconds, over a few instances drawn from ``--seed``.
With ``--trace 1`` it alternates plain and traced calls and reports the
per-layer metrics of ``tracing.py``. Every output is then checked
against the oracles of ``oracles.py`` (untimed). The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the seed, versions, sample counts and the oracle comparison.

The library is imported from ``src/`` of the same checkout and nowhere
else; BLAS is pinned to one thread. See NOTES.md for the workloads and
what each metric should respond to.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INSTANCES = {"full": 3, "tiny": 1}
SETUP_REPEATS = {"full": 3, "tiny": 1}
WORKLOAD_NAMES = ("escape", "bands", "piezo", "stability")


def import_library():
    """Import mslwave from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mslwave
    if Path(mslwave.__file__).resolve().parent != (src / "mslwave").resolve():
        raise ImportError(f"mslwave imported from {mslwave.__file__}, "
                          f"not from {src}")
    return mslwave


def setup(workload: str, seed: int, size: str, workdir: str):
    """Everything before the first timed call: generate the seeded
    inputs and parse or write the structures."""
    import workloads
    wl = workloads.WORKLOADS[workload]
    return wl, [wl.prepare(wl.make(seed, i, size), workdir)
                for i in range(INSTANCES[size])]


def measure_setup_s(args) -> float:
    """Median time from a fresh interpreter to a workload ready to run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS[args.size]):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_loop(wl, ready, seconds: float):
    """Run the instances in turn, at least once each, then until the
    next call would end more than half a call past ``seconds``."""
    walls, rates, outputs, errors = [], [], {}, []
    start = time.perf_counter()
    n = 0
    wall = 0.0
    while n < len(ready) or time.perf_counter() - start + wall / 2 < seconds:
        i = n % len(ready)
        n += 1
        t0 = time.perf_counter()
        try:
            out = wl.run(ready[i])
        except Exception as exc:  # reported as a failed call
            errors.append(f"instance {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            wall = time.perf_counter() - t0
        walls.append(wall)
        rates.append(wl.points(ready[i]) / wall)
        outputs.setdefault(i, out)
    return walls, rates, outputs, errors, n


def traced_loop(wl, ready, seconds: float):
    """Alternate plain and traced calls of the same instance, with the
    stopping rule of :func:`timed_loop` applied to the pairs."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, outputs, errors = [], [], {}, []
    start = time.perf_counter()
    n = 0
    pair = 0.0
    while n < 1 or time.perf_counter() - start + pair / 2 < seconds:
        i = n % len(ready)
        n += 1
        pair_start = t0 = time.perf_counter()
        try:
            wl.run(ready[i])
            plain.append(time.perf_counter() - t0)
            patches = tracing.install(tracer)
            try:
                t0 = time.perf_counter()
                out = tracer.run(wl.run, ready[i])
                traced.append(time.perf_counter() - t0)
            finally:
                tracing.uninstall(patches)
        except Exception as exc:  # reported as a failed call
            errors.append(f"instance {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            pair = time.perf_counter() - pair_start
        outputs.setdefault(i, out)
    metrics = tracing.layer_metrics(tracer, len(traced)) if traced else {}
    if traced:
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
    return metrics, outputs, errors, 2 * n


def peak_mem_mb(wl, ready) -> float:
    """Peak traced heap of one call, above what existed before it. An
    untraced call first does the lazy imports and fills the caches."""
    wl.run(ready)
    tracemalloc.start()
    try:
        wl.run(ready)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def start_memory_probe(args) -> subprocess.Popen:
    """Measure ``peak_mem_mb`` on the thinned first instance in a second
    interpreter, which runs while this one checks the outputs. Tracing
    every allocation makes a call about five times slower, hence the
    thinning."""
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--memory-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size], cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish_memory_probe(proc: subprocess.Popen) -> float:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe exited with {proc.returncode}")
    return float(out.split()[-1])


def check_outputs(wl, ready, outputs):
    """Oracle comparison summed over the checked instances."""
    import workloads
    total = workloads.Quality()
    for i, out in sorted(outputs.items()):
        try:
            q = wl.check(ready[i], out)
        except Exception as exc:  # a crashing check is a failed check
            total.fail(f"instance {i}: {type(exc).__name__}: {exc}")
            continue
        total.merge(q, f"instance {i}")
    return total


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def run_record(args, quality, **extra) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "instances": INSTANCES[args.size], "commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "oracle": {"oracle_roots": quality.oracle_roots,
                   "scan_roots": quality.scan_roots,
                   "roots_missed": quality.missed,
                   "roots_spurious": quality.spurious,
                   "check_fail": quality.check_fail,
                   "failed_frac": _frac(quality.failed, quality.attempted),
                   "notes": quality.notes},
        **extra,
    }


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def quality_metrics(q) -> dict:
    matched = q.oracle_roots - q.missed
    return {
        "ok_frac": 1.0 - _frac(q.failed, q.attempted),
        "root_recall": matched / q.oracle_roots if q.oracle_roots else 1.0,
        "root_precision": ((q.scan_roots - q.spurious) / q.scan_roots
                           if q.scan_roots else 1.0),
    }


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    phases = {"start": time.perf_counter()}
    setup_s = measure_setup_s(args) if not args.trace else None
    walls = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl, ready = setup(args.workload, args.seed, args.size, workdir)
        phases["setup"] = time.perf_counter()
        if args.trace:
            layer, outputs, errors, samples = traced_loop(wl, ready,
                                                          args.seconds)
        else:
            walls, rates, outputs, errors, samples = timed_loop(
                wl, ready, args.seconds)
            probe = start_memory_probe(args)
        phases["measure"] = time.perf_counter()
        try:
            quality = check_outputs(wl, ready, outputs)
        finally:
            if not args.trace:
                peak = finish_memory_probe(probe)
        phases["check"] = time.perf_counter()

    failed = len(errors) + quality.check_fail
    record = run_record(
        args, quality, samples=samples, walls_s=walls, errors=errors,
        outputs_checked=len(outputs),
        phase_s={name: phases[name] - phases[prev] for prev, name in
                 zip(("start", "setup", "measure"),
                     ("setup", "measure", "check"))})
    if args.trace:
        metrics = dict(layer)
        metrics.update({
            "check.roots_missed": quality.missed,
            "check.roots_spurious": quality.spurious,
            "check.check_fail": quality.check_fail,
            "check.failed_frac": _frac(quality.failed, quality.attempted),
            "solvers.root_err_max": max(quality.root_errs, default=0.0),
        })
    else:
        metrics = {"wall_s": statistics.median(walls) if walls else 0.0,
                   "points_per_s": statistics.median(rates) if rates else 0.0,
                   "setup_s": setup_s, "peak_mem_mb": peak}
        metrics.update(quality_metrics(quality))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} "
                           "differ between BENCHMARK.json and this run")
    for name, value in metrics.items():
        print(f"{args.workload:>9}  {name:<28} {value:>14.6g} {units[name]}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": samples, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # leave through SystemExit on SIGTERM, so the temporary directories
    # are removed and the helper interpreters are waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if args.workload == "all":
        return run_all(args)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import mslwave from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe or args.memory_probe:
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as workdir:
            wl, ready = setup(args.workload, args.seed, args.size, workdir)
            if args.memory_probe:
                print(peak_mem_mb(wl, wl.thin(ready[0])))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
