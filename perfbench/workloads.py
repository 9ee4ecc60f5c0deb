"""The benchmark's workloads: inputs made from the seed, one op each, and
the checks every op's outputs must pass.

Each workload stresses a different layer of graphprop:

* ``synth-48``   graph construction (tree kNN, edge union, built three times),
  the bound scalars (power-iteration phi, GTVM eigenvalue and q) and GTVM
  inpainting on the union graph; the CG solve is a small share.
* ``overlap-96`` the grounded solve: large contiguous holes need hundreds
  of CG iterations per channel, and never-observed corners are excluded.
* ``sweep-100``  the HaLRTC baseline, whose SVDs dominate each point; an op
  is a three-rank sweep.
* ``hyper-96``   the brute-force kNN path (24 channels), tensor file I/O and
  the ``complete`` runner.

A workload is a panel of instances made from the seed. Iterative layers
(power iteration, CG, ADMM) take a number of iterations that depends on
the instance, so one instance's time spreads widely from seed to seed; the
panel is sized so that its mean per point is steady.
``SIZES["tiny"]`` shrinks every workload for the smoke tests.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphprop as gp
from graphprop import harness
from graphprop.errors import (
    CoverageViolationWarning,
    MaxItersExceeded,
    SingularSystemWarning,
)

K = 10
MISSING_FRAC = 0.4

SIZES = {
    "full": {
        "synth-48": dict(side=48, channels=3, rank=16, panel=36),
        "overlap-96": dict(side=96, channels=7, area=0.4, panel=32),
        "sweep-100": dict(side=100, channels=3, ranks=(5, 20, 40), panel=4),
        "hyper-96": dict(side=96, channels=24, rank=10, panel=3),
    },
    "tiny": {
        "synth-48": dict(side=24, channels=3, rank=4, panel=3),
        "overlap-96": dict(side=24, channels=7, area=0.4, panel=3),
        "sweep-100": dict(side=16, channels=3, ranks=(2, 4, 8), panel=2),
        "hyper-96": dict(side=16, channels=24, rank=4, panel=2),
    },
}

# Warnings that make an op count as failed.
FAILING_WARNINGS = (MaxItersExceeded, SingularSystemWarning)


@dataclass
class OpResult:
    """What one op returned, in the form the checks and metrics need."""

    rmse_graphprop: float
    rmse_baseline: float
    failures: list[str] = field(default_factory=list)
    coverage_warnings: int = 0
    gtvm_fallbacks: int = 0


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, tag]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def _bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_completions(acquisitions, results, failures: list[str]) -> None:
    """Observed rows come back bit-identical and every solve converged."""
    for lam, ((f_obs, om), res) in enumerate(zip(acquisitions, results), start=1):
        if not _bit_identical(res.completed.values[om.observed], f_obs):
            failures.append(f"acquisition {lam}: observed rows changed")
        if not res.stats.converged:
            failures.append(f"acquisition {lam}: solver did not converge "
                            f"({res.stats.iterations} iterations)")


def completion_rmse(truth, estimates, omegas, never_observed=()) -> float:
    """RMSE over missing entries that were observed in some acquisition."""
    return gp.rmse(gp.ErrorField.from_completions(truth, estimates, omegas,
                                                  never_observed=never_observed))


class Capture:
    """Keeps what the harness runners pass to and get back from
    ``graphprop()`` and ``halrtc_complete()``, so their outputs can be
    checked; wraps the harness module attributes those runners look up."""

    SITES = ("graphprop", "halrtc_complete", "generate_acquisitions")

    def __init__(self):
        self.calls: list[tuple[str, tuple, object]] = []
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        for attr in self.SITES:
            original = getattr(harness, attr)
            self._saved[attr] = original

            def wrapper(*args, _name=attr, _fn=original, **kwargs):
                result = _fn(*args, **kwargs)
                self.calls.append((_name, args, result))
                return result

            setattr(harness, attr, wrapper)

    def uninstall(self) -> None:
        for attr, original in self._saved.items():
            setattr(harness, attr, original)
        self._saved.clear()

    def last(self, name: str) -> tuple[tuple, object]:
        """Arguments and result of the latest call to ``name``."""
        return next((args, result) for n, args, result in reversed(self.calls)
                    if n == name)

    def take(self) -> list[tuple[str, tuple, object]]:
        calls, self.calls = self.calls, []
        return calls

    @staticmethod
    def check(calls, failures: list[str]) -> None:
        for name, args, result in calls:
            if name == "graphprop":
                check_completions(args[0], result, failures)
            elif name == "halrtc_complete":
                t, mask = args[0], np.asarray(args[1], dtype=bool)
                if not _bit_identical(result.values[mask], t.values[mask]):
                    failures.append("halrtc: observed entries changed")


def _config(workdir: Path, **data):
    return harness.config_from_dict({"k": K, "workers": 1, "out_dir": str(workdir / "out"),
                                     "solver": {"method": "cg"}, **data})


class Workload:
    name = ""
    points_per_op = 1
    # Reference RMSE ranges per size, ((graphprop lo, hi), (baseline lo, hi)):
    # the per-op values seen over seeds 11-15 (full) and 0-19 (tiny) when this
    # benchmark was added, widened by a factor of 3 each way, with 0 as the
    # lower end where the method can be exact. One instance's RMSE varies
    # several-fold from seed to seed, so the ranges catch broken outputs
    # (blow-ups, NaN), not small drifts.
    references: dict = {}

    def __init__(self, size: str):
        self.size = size
        self.params = SIZES[size][self.name]

    def setup(self, seed: int, workdir: Path) -> list:
        """Make the panel's inputs from the seed (the set-up being timed);
        one state per instance."""
        raise NotImplementedError

    def op(self, state, capture: Capture):
        """The timed call into graphprop; returns its raw outputs.
        ``capture`` holds the harness calls made so far in this op."""
        raise NotImplementedError

    def check(self, state, raw, calls) -> OpResult:
        """Check the outputs of one op and compute its quality figures."""
        raise NotImplementedError

    def reference_failures(self, out: OpResult) -> list[str]:
        failures = []
        for label, value, (lo, hi) in zip(("rmse_graphprop", "rmse_baseline"),
                                          (out.rmse_graphprop, out.rmse_baseline),
                                          self.references[self.size]):
            if not lo <= value <= hi:
                failures.append(f"{label} {value!r} outside reference range [{lo}, {hi}]")
        return failures


def gtvm_on_union_graph(acquisitions) -> list:
    """GTVM per acquisition on the union graph that graphprop() builds
    internally from the same observations."""
    n, channels = acquisitions[0][1].n, acquisitions[0][0].shape[1]
    edge_sets = []
    for f_obs, om in acquisitions:
        features = np.zeros((n, channels))
        features[om.observed] = f_obs
        edge_sets.append(gp.knn_edges(gp.FiberMatrix(features), om, K))
    graph = gp.build_graph(gp.union_edges(edge_sets))
    return [gp.gtvm_inpaint(graph, om, f_obs) for f_obs, om in acquisitions]


def mean_fill_rmse(truth, omegas, never_observed=()) -> float:
    """RMSE of the library's fill policy for unreachable nodes, the
    per-channel mean of the observed fibers."""
    estimates = []
    for f, om in zip(truth, omegas):
        est = f.copy()
        est[om.missing] = f[om.observed].mean(axis=0)
        estimates.append(est)
    return completion_rmse(truth, estimates, omegas, never_observed)


class Synth48(Workload):
    """``run_bound_report`` per instance, then GTVM per acquisition on the
    union graph of the instance it generated. Scattered missing fibers keep
    GTVM's system well posed (see README.md, "Known defect")."""

    name = "synth-48"
    references = {"full": ((0.05, 1.7), (0.14, 3.1)), "tiny": ((0.089, 2.9), (0.16, 4.0))}

    def setup(self, seed, workdir):
        p = self.params
        return [_config(workdir, kind="bound-report", seed=s, i1=p["side"], i2=p["side"],
                        i3=p["channels"], rank=p["rank"], missing_frac=MISSING_FRAC)
                for s in _seeds(seed, 48, p["panel"])]

    def op(self, cfg, capture):
        reports = harness.run_bound_report(cfg, write=False)
        (acquisitions, *_), _ = capture.last("graphprop")
        return reports, gtvm_on_union_graph(acquisitions)

    def check(self, cfg, raw, calls):
        reports, gtvm = raw
        out = OpResult(math.nan, math.nan)
        Capture.check(calls, out.failures)
        (acquisitions, *_), _ = next(c[1:] for c in calls if c[0] == "graphprop")
        _, tensors = next(c[1:] for c in calls if c[0] == "generate_acquisitions")
        for lam, ((f_obs, om), est) in enumerate(zip(acquisitions, gtvm), start=1):
            if not _bit_identical(est.values[om.observed], f_obs):
                out.failures.append(f"gtvm acquisition {lam}: observed rows changed")
        entries = sum(om.missing.size for _, om in acquisitions) * cfg.i3
        out.rmse_graphprop = math.sqrt(sum(r.measured_error ** 2 for r in reports) / entries)
        out.rmse_baseline = completion_rmse([gp.matricize(t, 3).values for t in tensors], gtvm,
                                            [om for _, om in acquisitions])
        for lam, r in enumerate(reports, start=1):
            if not r.applicable:
                out.failures.append(f"acquisition {lam}: phi {r.phi} >= 2, no bound")
            elif not r.measured_error <= r.bound:
                out.failures.append(f"acquisition {lam}: error {r.measured_error} "
                                    f"exceeds bound {r.bound}")
        return out


@dataclass
class OverlapState:
    acquisitions: list
    truth: list
    omegas: list
    never: np.ndarray


class Overlap96(Workload):
    """One ``graphprop()`` call for a smooth raster pair with
    partial-overlap masks. The baseline figure is the observed-mean fill."""

    name = "overlap-96"
    references = {"full": ((0.04, 2.3), (0.13, 5.4)), "tiny": ((0.026, 1.6), (0.15, 3.1))}

    def setup(self, seed, workdir):
        p = self.params
        side = p["side"]
        masks = gp.partial_overlap_masks(gp.OverlapSpec(side, side, p["area"]))
        omegas = [gp.ObservationSet(side * side, np.nonzero(m.ravel(order="F"))[0])
                  for m in masks]
        never = np.nonzero(~(masks[0] | masks[1]).ravel(order="F"))[0]
        states = []
        for s in _seeds(seed, 96, p["panel"]):
            rasters = gp.smooth_raster_pair(side, side, p["channels"], seed=s)
            truth = [gp.matricize(t, 3).values for t in rasters]
            acquisitions = [(f[om.observed], om) for f, om in zip(truth, omegas)]
            states.append(OverlapState(acquisitions, truth, omegas, never))
        return states

    def op(self, s, capture):
        return gp.graphprop(s.acquisitions, K, method="cg")

    def check(self, s, results, calls):
        out = OpResult(math.nan, math.nan)
        check_completions(s.acquisitions, results, out.failures)
        out.rmse_graphprop = completion_rmse(s.truth, [r.completed for r in results],
                                             s.omegas, s.never)
        out.rmse_baseline = mean_fill_rmse(s.truth, s.omegas, s.never)
        return out


class Sweep100(Workload):
    """``run_rank_sweep`` over the three ranks, one repeat each, per
    instance: graphprop and HaLRTC at every point."""

    name = "sweep-100"
    references = {"full": ((0.029, 1.4), (0.0, 0.95)), "tiny": ((0.078, 2.8), (0.0, 2.5))}

    def __init__(self, size: str):
        super().__init__(size)
        self.points_per_op = len(self.params["ranks"])

    def setup(self, seed, workdir):
        p = self.params
        return [_config(workdir, kind="rank-sweep", seed=s, i1=p["side"], i2=p["side"],
                        i3=p["channels"], rank_grid=list(p["ranks"]), repeats=1,
                        missing_frac=MISSING_FRAC)
                for s in _seeds(seed, 100, p["panel"])]

    def op(self, cfg, capture):
        return harness.run_rank_sweep(cfg, write=False)

    def check(self, cfg, rows, calls):
        out = OpResult(math.nan, math.nan)
        Capture.check(calls, out.failures)
        # Every point has the same entry count, so the op's RMSE is the
        # root of the mean squared per-point RMSE.
        for method, attr in (("graphprop", "rmse_graphprop"), ("halrtc", "rmse_baseline")):
            values = [r.value for r in rows if r.method == method and r.metric == "rmse"]
            if len(values) != self.points_per_op:
                out.failures.append(f"{method}: {len(values)} rmse rows")
            else:
                setattr(out, attr, math.sqrt(sum(v * v for v in values) / len(values)))
        return out


@dataclass
class HyperState:
    cfg: object
    truth: list
    omegas: list


class Hyper96(Workload):
    """``run_complete`` on two Tucker acquisitions read from tensor files;
    24 channels send kNN down the brute-force path. The baseline figure is
    the library's fill policy for unreachable nodes, the per-channel mean
    of the observed fibers."""

    name = "hyper-96"
    references = {"full": ((0.16, 2.0), (0.28, 3.7)), "tiny": ((0.16, 2.6), (0.25, 3.6))}

    def setup(self, seed, workdir):
        p = self.params
        states = []
        seeds = _seeds(seed, 96, 2 * p["panel"])
        for j in range(p["panel"]):
            seed_gen, seed_obs = seeds[2 * j], seeds[2 * j + 1]
            spec = gp.SynthSpec(p["side"], p["side"], p["channels"], r=p["rank"],
                                missing_frac=MISSING_FRAC, seed=seed_gen)
            tensors = gp.generate_acquisitions(spec)
            omegas = gp.sample_observation_sets(spec.n, MISSING_FRAC, 2, seed=seed_obs)
            inst = workdir / f"instance{j}"
            inst.mkdir()
            inputs, observed = [], []
            for lam, (t, om) in enumerate(zip(tensors, omegas), start=1):
                inputs.append(str(inst / f"acq{lam}.tenb"))
                observed.append(str(inst / f"acq{lam}_observed.json"))
                gp.save_tensor(t, inputs[-1])
                harness.save_observation_set(om, observed[-1])
            cfg = _config(inst, kind="complete", inputs=inputs, observation_files=observed)
            states.append(HyperState(cfg, [gp.matricize(t, 3).values for t in tensors], omegas))
        return states

    def op(self, s, capture):
        results, _ = harness.run_complete(s.cfg, write=True)
        return results

    def check(self, s, results, calls):
        out = OpResult(math.nan, math.nan)
        Capture.check(calls, out.failures)
        out_dir = Path(s.cfg.out_dir)
        for lam, (f, om, res) in enumerate(zip(s.truth, s.omegas, results), start=1):
            written = gp.matricize(gp.load_tensor(out_dir / f"completed_acq{lam}.tenb"), 3)
            if not _bit_identical(written.values, res.completed.values):
                out.failures.append(f"acquisition {lam}: written tensor differs")
            if not _bit_identical(written.values[om.observed], f[om.observed]):
                out.failures.append(f"acquisition {lam}: observed fibers changed on disk")
        out.rmse_graphprop = completion_rmse(s.truth, [r.completed for r in results], s.omegas)
        out.rmse_baseline = mean_fill_rmse(s.truth, s.omegas)
        return out


WORKLOADS = {w.name: w for w in (Synth48, Overlap96, Sweep100, Hyper96)}


def run_op(workload: Workload, state, capture: Capture, around) -> tuple[float, OpResult]:
    """One timed op inside the context ``around``, then its checks. A
    raised error or a failing warning marks the op failed instead of
    escaping. Returns the op's seconds."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with around:
                start = time.perf_counter()
                try:
                    raw = workload.op(state, capture)
                finally:
                    seconds = time.perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op, not a crash
            capture.take()
            return seconds, OpResult(math.nan, math.nan,
                                     [f"raised {type(exc).__name__}: {exc}"])
        out = workload.check(state, raw, capture.take())
    for w in caught:
        if issubclass(w.category, FAILING_WARNINGS):
            out.failures.append(f"warning {w.category.__name__}: {w.message}")
        if issubclass(w.category, SingularSystemWarning):
            out.gtvm_fallbacks += 1
        elif issubclass(w.category, CoverageViolationWarning):
            out.coverage_warnings += 1
    out.failures.extend(workload.reference_failures(out))
    return seconds, out
