"""Benchmark for graphprop: one workload per run, from one process.

    python3 perfbench/run.py --workload synth-48 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``; the
inputs are made from ``--seed``; BLAS runs one thread. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes over the workload's panel of instances and
reports the per-layer metrics. Every op's outputs are checked.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--size tiny`` runs the smoke-test size of each workload.
See perfbench/README.md for what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Share of each op's time spent timing the reference kernel after it.
REFERENCE_SHARE = 0.05
# BLAS runs one thread: with a second one, on a machine of few cores shared
# with other work, timings measure the scheduler more than the program.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"point_rel": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; ops start only while they fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set the workload up in DIR and exit (used to time set-up)")
    return parser.parse_args(argv)


def use_program_from_checkout():
    """Put the checkout's src/ first on the import path; exits with code 2
    when the program is not there."""
    if not (ROOT / "src" / "graphprop" / "__init__.py").is_file():
        print(f"perfbench: no src/graphprop under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def blas_info() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(args) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def timed_setups(args) -> list[float]:
    """Seconds from process start to inputs ready, in fresh processes:
    interpreter start, imports, input generation and file writes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--size", args.size, "--setup-only", str(workdir)]
        try:
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
            samples.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return samples


class ReferenceKernel:
    """A fixed piece of sparse, dense, memory-streaming and pure-Python
    work, the same for every seed and independent of graphprop. Timed
    around every op, it tracks how fast the machine runs at that moment: on
    a shared machine that speed drifts by tens of percent over minutes, and
    an op's time divided by the kernel's (``point_rel``) drifts far less."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self.matrix = sp.random_array((6000, 6000), density=0.002, format="csr", rng=rng)
        self.dense = rng.standard_normal((120, 120))
        self.start = rng.standard_normal(6000)
        self.stream = rng.standard_normal(3_000_000)

    def __call__(self, budget_s: float = 0.0) -> float:
        """Median seconds of one kernel run, over runs that fill
        ``budget_s`` (at least one run)."""
        samples = [self.once()]
        while sum(samples) < budget_s:
            samples.append(self.once())
        return statistics.median(samples)

    def once(self) -> float:
        import numpy as np

        start = time.perf_counter()
        self.stream.sum()
        x = self.start
        for _ in range(40):
            x = self.matrix @ x
            x /= np.linalg.norm(x)
        for _ in range(3):
            np.linalg.svd(self.dense)
        total = 0
        for i in range(40_000):
            total += i * i
        return time.perf_counter() - start


def tail_percentile(samples: list[float]):
    """The highest whole percentile with at least ten samples above it,
    and the value there; None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def run_pass(workload, panel, capture, tracer, kernel) -> list:
    """One op per panel instance; traced when ``tracer`` is given. Returns
    (seconds, OpResult, per-layer figures or None, reference seconds) per
    op, the last being the mean of the reference kernel timed just before
    and just after the op."""
    import spans
    import workloads

    ops = []
    before = kernel()
    for state in panel:
        if tracer is None:
            seconds, out = workloads.run_op(workload, state, capture, contextlib.nullcontext())
            layers = None
        else:
            tracer.install()
            try:
                root = tracer.root("op")
                seconds, out = workloads.run_op(workload, state, capture, root)
            finally:
                tracer.uninstall()
            tracer.check_nesting()
            layers = spans.layer_metrics(tracer, root.index)
            tracer.reset()
        after = kernel(REFERENCE_SHARE * seconds)
        ops.append((seconds, out, layers, (before + after) / 2))
        before = after
    return ops


def pooled(values) -> float | None:
    """Root mean square over the panel; every instance of a workload has
    the same number of evaluated entries, so this is the panel's RMSE."""
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else None


def median_point(ops, points: int) -> float:
    """Median seconds per point over the successful ops."""
    good = [s for s, out, *_ in ops if not out.failures]
    return statistics.median(good) / points if good else math.nan


def median_relative(ops, points: int) -> float:
    """Median over the successful ops of the op's time in reference-kernel
    times, per point."""
    good = [s / ref for s, out, _, ref in ops if not out.failures]
    return statistics.median(good) / points if good else math.nan


def check_repeatable(passes) -> None:
    """An instance run again gives bit-identical quality figures."""
    for later in passes[1:]:
        for (_, first, *_), (_, again, *_) in zip(passes[0], later):
            if (first.rmse_graphprop, first.rmse_baseline) != (
                    again.rmse_graphprop, again.rmse_baseline) and not first.failures:
                again.failures.append("quality figures differ from the first pass")


def run(args) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.size)
    setup_samples = timed_setups(args)

    tracer = spans.Tracer() if args.trace else None
    capture = workloads.Capture()
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    setup_layers = {}
    try:
        if tracer:
            for site in tracer.install():
                print(f"perfbench: {site} not found, its layer reads 0", file=sys.stderr)
            try:
                with tracer.root("setup") as root:
                    panel = workload.setup(args.seed, workdir)
            finally:
                tracer.uninstall()
            tracer.check_nesting()
            setup_layers["datagen.s"] = spans.layer_metrics(tracer, root.index)["datagen.op_s"]
            tracer.reset()
        else:
            panel = workload.setup(args.seed, workdir)

        capture.install()
        kernel = ReferenceKernel()
        kernel()  # warm-up
        # Whole passes over the panel while they fit in the window. Traced
        # runs alternate untraced (even) and traced (odd) passes over the
        # same instances, so the overhead is measured in one process.
        passes = []
        window_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_start = time.perf_counter()
            passes.append(run_pass(workload, panel, capture, tracer if traced else None,
                                   kernel))
            elapsed = time.perf_counter() - window_start
            last = time.perf_counter() - pass_start
            if len(passes) >= (2 if args.trace else 1) and elapsed + last > args.seconds:
                break
    finally:
        capture.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    check_repeatable(passes)
    all_ops = [op for p in passes for op in p]
    failed = sum(1 for _, out, *_ in all_ops if out.failures)
    points = workload.points_per_op
    # The first op in a fresh process pays the warm-up a CLI call pays
    # every time; it is reported apart and kept out of the point figures.
    cold_s = all_ops[0][0]
    untraced = [op for i, p in enumerate(passes) if i % 2 == 0 or not args.trace
                for op in p][1:]
    samples = [s / points for s, out, *_ in untraced if not out.failures]
    point_s = median_point(untraced, points)
    good_first = [out for _, out, *_ in passes[0] if not out.failures]
    report = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "env": environment(args),
        "panel": len(panel),
        "passes": len(passes),
        "cold_point_s": cold_s / points,
        "point_s": point_s,
        "reference_kernel_s": statistics.median(ref for *_, ref in untraced),
        "point_s_samples": len(samples),
        "point_s_tail": tail_percentile(samples),
        "failed_frac": failed / len(all_ops),
        "coverage_warnings": sum(out.coverage_warnings for _, out, *_ in all_ops),
        "rmse_graphprop": pooled(out.rmse_graphprop for out in good_first),
        "rmse_baseline": pooled(out.rmse_baseline for out in good_first),
        "rmse_per_op_range": [
            [min(v, default=None), max(v, default=None)]
            for v in ([o.rmse_graphprop for o in good_first],
                      [o.rmse_baseline for o in good_first])
        ],
        "failures": [f"op {i}: {msg}" for i, (_, out, *_) in enumerate(all_ops)
                     for msg in out.failures][:20],
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        # Layer figures are means per point over the traced ops, so that
        # they add up towards the op time rather than a single op's.
        traced = [op for i, p in enumerate(passes) if i % 2 == 1 for op in p]
        per_point = len(traced) * points
        metrics = {name: sum(layers[name] for _, _, layers, _ in traced) / per_point
                   for name in traced[0][2]}
        metrics.update(setup_layers)
        metrics["baselines.gtvm_fallbacks"] = sum(
            out.gtvm_fallbacks for _, out, *_ in traced) / per_point
        metrics["propagation.coverage_warnings"] = sum(
            out.coverage_warnings for _, out, *_ in traced) / per_point
        metrics["trace.overhead_s"] = median_point(traced, points) - point_s
        report["metrics"] = metrics
    else:
        report["metrics"] = {
            "point_rel": median_relative(untraced, points),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return report


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload in turn, each in its own process, output passed on."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        code = code or subprocess.run(cmd, cwd=ROOT).returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    use_program_from_checkout()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.size).setup(args.seed, Path(args.setup_only))
        return 0

    WORK_ROOT.mkdir(exist_ok=True)
    try:
        report = run(args)
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    info = {k: v for k, v in report.items() if k not in ("correct", "attempted", "failed",
                                                         "metrics")}
    print("info " + json.dumps(info, sort_keys=True))
    for msg in report["failures"]:
        print(f"FAILED {msg}")
    print(f"workload {args.workload} seed {args.seed}: {report['attempted']} ops over "
          f"{report['panel']} instances, {report['failed']} failed "
          f"(failed_frac {report['failed_frac']:.3f}), cold op {report['cold_point_s']:.4f} s")
    metrics = {}
    for name, value in report["metrics"].items():
        unit = unit_of(name)
        value = float(value) if value is not None and math.isfinite(value) else None
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value} {unit}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
