"""Experiment driver: configuration, the study runners, and result
persistence.

Each runner writes, under the configured output directory:

* ``results.csv``    one value row per (instance, method, metric), with a
  schema-versioned comment line on top; byte-identical across re-runs of
  the same config and seed,
* ``summary.csv``    mean/std over repeats per sweep coordinate,
* ``timings.csv``    informational per-method runtimes (never asserted):
  the seconds of each method's call, timed by the same stage that records
  its warnings, so blogs' median thresholding is not counted,
* ``manifest.json``  config echo plus per-run notes; every runner lists in
  ``notes["warnings"]`` (per area for overlap-sim) each warning raised,
  with its category, message, method and sweep coordinates,

and any experiment-specific artifacts (completed tensors, bound reports).
"""
from __future__ import annotations

import csv
import functools
import json
import logging
import time
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .baselines import (
    gtvm_inpaint,
    halrtc_complete,
    stack_acquisitions,
    unstack_acquisitions,
)
from .bounds import evaluate_bounds
from .datagen import (
    OverlapSpec,
    SynthSpec,
    generate_acquisitions,
    partial_overlap_masks,
    sample_observation_sets,
    smooth_raster_pair,
    two_block_graph,
)
from .errors import (
    BoundViolation,
    ConfigError,
    DataError,
    NoMissingEntries,
)
from .graph import ObservationSet, build_graph, load_edge_list
from .metrics import ErrorField, accuracy, mae, mpsnr, mse, rmse
from .propagation import graphprop, median_threshold, solve_steady_state
from .tensor import DenseTensor, FiberMatrix, load_tensor, matricize, refold, save_tensor

log = logging.getLogger("graphprop")

SCHEMA_VERSION = "graphprop.results.v1"

EXPERIMENT_KINDS = (
    "rank-sweep",
    "missing-sweep",
    "overlap-sim",
    "blogs",
    "complete",
    "bound-report",
)

_KIND_TAGS = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS, start=1)}

# Applied on top of the defaults when full_scale is set, for keys the user
# did not set explicitly.
FULL_SCALE_PRESET = {
    "i1": 200,
    "i2": 200,
    "height": 500,
    "width": 500,
    "bands": 7,
    "repeats": 10,
}
# Per-kind entries win over FULL_SCALE_PRESET.
FULL_SCALE_KIND_PRESET = {"blogs": {"repeats": 30}}


@dataclass(frozen=True)
class SolverSettings:
    method: str = "cg"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, built from a JSON object by :func:`config_from_dict`.

    The field annotations are the only type rule: an ``int`` key takes a
    JSON integer (``true``/``false`` are not integers), a ``float`` key a
    JSON number (an integer is stored as a float), a ``str`` key a string,
    a ``bool`` key ``true`` or ``false``, a ``tuple[X, ...]`` key a JSON
    array (never a string) whose elements follow X's rule, and ``solver``
    a JSON object checked the same way against :class:`SolverSettings`.
    A mismatch or an unknown key raises :class:`ConfigError`.

    ``full_scale`` fills every key the config leaves unset from
    ``FULL_SCALE_PRESET``, with ``repeats`` 30 for blogs and 10 for the
    other kinds. For ``complete``, nonempty ``truth_files`` (one per
    input) turn on the bound report.
    """

    kind: str
    seed: int = 0
    k: int = 10
    repeats: int = 3
    workers: int = 1
    out_dir: str = "out"
    full_scale: bool = False
    # synthetic sweep dimensions
    i1: int = 60
    i2: int = 60
    i3: int = 3
    rank: int = 5
    rank_grid: tuple[int, ...] = (5, 20, 40, 60)
    missing_frac: float = 0.4
    missing_grid: tuple[float, ...] = (0.05, 0.15, 0.25, 0.35, 0.45)
    rank_tiles: tuple[int, ...] = (5, 30, 60)
    # overlap simulation
    height: int = 128
    width: int = 128
    bands: int = 4
    area_grid: tuple[float, ...] = (0.4,)
    # label propagation
    label_fracs: tuple[float, ...] = (0.05, 0.1, 0.2)
    two_block_size: int = 0
    graph_file: str = ""
    labels_file: str = ""
    # generic completion
    inputs: tuple[str, ...] = ()
    observation_files: tuple[str, ...] = ()
    truth_files: tuple[str, ...] = ()
    solver: SolverSettings = field(default_factory=SolverSettings)


_SCALAR_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, value, hint):
    """``value`` checked against the annotation ``hint`` of config key
    ``key``, by the rule :class:`ExperimentConfig` states."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        return hint(**_typed_fields(hint, value, prefix=f"{key}."))
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a JSON array, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_typed(f"{key}[{i}]", v, item) for i, v in enumerate(value))
    if hint is float and type(value) is int:
        value = float(value)
    # bool is a subclass of int, but true is not an integer here
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{key} must be {_SCALAR_NAMES[hint]}, got {value!r}")
    return value


@functools.cache
def _field_types(cls) -> dict:
    """Field name to annotation of a config dataclass (it has no ClassVar);
    cached because resolving the string annotations costs far more than a
    check."""
    return typing.get_type_hints(cls)


def _typed_fields(cls, data: dict, prefix: str = "") -> dict:
    """The entries of ``data`` checked against the fields of dataclass
    ``cls``; unknown keys are rejected."""
    hints = _field_types(cls)
    unknown = sorted(prefix + key for key in data if key not in hints)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return {key: _typed(prefix + key, value, hints[key]) for key, value in data.items()}


def config_from_dict(data: dict, **overrides) -> ExperimentConfig:
    """Build a validated config from a JSON-style dict; ``overrides`` are
    CLI flags and win over the dict. Unknown keys and values of the wrong
    type are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    values = _typed_fields(ExperimentConfig, data)
    if "kind" not in values:
        raise ConfigError("config must name the experiment kind")
    if values.get("full_scale"):
        values = {**FULL_SCALE_PRESET, **FULL_SCALE_KIND_PRESET.get(values["kind"], {}),
                  **values}
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, **overrides)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.k < 1:
        raise ConfigError("k must be at least 1")
    if cfg.repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.solver.method not in ("cg", "splu"):
        raise ConfigError(f"unknown solver method {cfg.solver.method!r}")
    if cfg.kind in ("rank-sweep", "missing-sweep", "bound-report"):
        ranks, fracs = _sweep_grid(cfg)
        if not ranks or not fracs:
            raise ConfigError("rank and missing-fraction grids must be nonempty")
        if cfg.kind == "rank-sweep" and cfg.missing_frac <= 0.0:
            raise ConfigError("rank-sweep needs missing_frac > 0 to score missing entries")
        if cfg.kind == "missing-sweep":
            for frac in fracs:
                if not 0.05 <= frac <= 0.45:
                    raise ConfigError(f"missing fractions must lie in [0.05, 0.45], got {frac}")
        # extents, rank range and fraction feasibility: SynthSpec's own checks
        try:
            for r in ranks:
                for frac in fracs:
                    SynthSpec(cfg.i1, cfg.i2, cfg.i3, r=r, missing_frac=frac)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.kind == "overlap-sim":
        if not cfg.area_grid:
            raise ConfigError("area grid must be nonempty")
        if cfg.inputs and len(cfg.inputs) != 2:
            raise ConfigError("overlap-sim needs exactly two input rasters")
        if cfg.bands < 1:
            raise ConfigError("raster bands must be positive")
        # extents and area range: OverlapSpec's own checks
        try:
            for area in cfg.area_grid:
                OverlapSpec(cfg.height, cfg.width, area)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.kind == "blogs":
        if not cfg.label_fracs:
            raise ConfigError("label fraction grid must be nonempty")
        if any(not 0.0 < f <= 1.0 for f in cfg.label_fracs):
            raise ConfigError("label fractions must lie in (0, 1]")
        if cfg.two_block_size < 0 or cfg.two_block_size == 1:
            raise ConfigError("two_block_size must be at least 2 (or 0 to read graph_file)")
        if cfg.two_block_size == 0 and not (cfg.graph_file and cfg.labels_file):
            raise ConfigError("blogs needs graph_file and labels_file, or two_block_size")
    if cfg.kind == "complete":
        if not cfg.inputs:
            raise ConfigError("complete needs at least one input tensor")
        if len(cfg.observation_files) != len(cfg.inputs):
            raise ConfigError("need one observation file per input tensor")
        if cfg.truth_files and len(cfg.truth_files) != len(cfg.inputs):
            raise ConfigError("bound reports need one truth tensor per input")


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    seed: int
    r: int | None
    missing_frac: float | None
    area_frac: float | None
    label_frac: float | None
    repeat: int
    method: str
    metric: str
    variant: str
    value: float
    runtime: float


RESULT_COLUMNS = (
    "experiment", "seed", "r", "missing_frac", "area_frac", "label_frac",
    "repeat", "method", "metric", "variant", "value",
)
TIMING_COLUMNS = (
    "experiment", "seed", "r", "missing_frac", "area_frac", "label_frac",
    "repeat", "method", "runtime_seconds",
)
SUMMARY_COLUMNS = (
    "experiment", "r", "missing_frac", "area_frac", "label_frac",
    "method", "metric", "variant", "mean", "std", "count",
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 scalars repr as np.float64(...)
    return str(value)


def _sort_key(row: ResultRow):
    return (
        row.experiment,
        row.seed,
        -1 if row.r is None else row.r,
        -1.0 if row.missing_frac is None else row.missing_frac,
        -1.0 if row.area_frac is None else row.area_frac,
        -1.0 if row.label_frac is None else row.label_frac,
        row.repeat,
        row.method,
        row.metric,
        row.variant,
    )


def summarize_rows(rows) -> list[dict]:
    """Mean and population standard deviation over repeats, per sweep
    coordinate, method, and metric."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row.experiment, row.r, row.missing_frac, row.area_frac,
               row.label_frac, row.method, row.metric, row.variant)
        groups.setdefault(key, []).append(row.value)
    out = []
    for key in sorted(groups, key=lambda k: tuple(-1 if v is None else v for v in k)):
        values = np.asarray(groups[key])
        out.append({
            "experiment": key[0], "r": key[1], "missing_frac": key[2],
            "area_frac": key[3], "label_frac": key[4], "method": key[5],
            "metric": key[6], "variant": key[7],
            "mean": float(values.mean()), "std": float(values.std()),
            "count": int(values.size),
        })
    return out


def _write_csv(path: Path, columns, dict_rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in dict_rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _out_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created on first use."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_outputs(cfg: ExperimentConfig, rows, notes: dict | None = None,
                  artifacts: list[str] | None = None, reports=None) -> Path:
    """Persist rows, summary, timings, the manifest and, given bound
    ``reports``, ``bound_report.json``; returns the output directory."""
    out_dir = _out_dir(cfg)
    artifacts = list(artifacts or [])
    if reports is not None:
        (out_dir / "bound_report.json").write_text(
            json.dumps([rep.to_dict() for rep in reports], indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        artifacts.append("bound_report.json")
    rows = sorted(rows, key=_sort_key)
    _write_csv(out_dir / "results.csv", RESULT_COLUMNS,
               [{**asdict(r)} for r in rows])
    _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, summarize_rows(rows))
    timing_rows = []
    seen = set()
    for r in rows:
        key = (r.experiment, r.seed, r.r, r.missing_frac, r.area_frac,
               r.label_frac, r.repeat, r.method)
        if key in seen:
            continue
        seen.add(key)
        timing_rows.append(dict(zip(TIMING_COLUMNS, key + (r.runtime,))))
    _write_csv(out_dir / "timings.csv", TIMING_COLUMNS, timing_rows)
    manifest = {
        "schema": SCHEMA_VERSION,
        "kind": cfg.kind,
        "config": asdict(cfg),
        "n_rows": len(rows),
        "artifacts": sorted(artifacts),
        "notes": notes or {},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir


def _derived_seed(*components) -> int:
    ss = np.random.SeedSequence([int(c) for c in components])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _observed_fiber_mask(omega: ObservationSet, i1: int, i2: int, i3: int) -> np.ndarray:
    flat = np.zeros(omega.n, dtype=bool)
    flat[omega.observed] = True
    # node p = i1_index + I1 * i2_index, first index fastest
    return np.broadcast_to(flat.reshape((i1, i2), order="F")[:, :, None], (i1, i2, i3))


def _halrtc_fibers(tensors, omegas) -> list[np.ndarray]:
    """HaLRTC on the (i1, i2, i3) acquisitions stacked along a trailing
    mode, every acquisition masked to its observed fibers; returns each
    acquisition's completed mode-3 fiber matrix."""
    stacked = stack_acquisitions(tensors)
    i1, i2, i3 = stacked.shape[:3]
    mask = np.stack([_observed_fiber_mask(om, i1, i2, i3) for om in omegas], axis=-1)
    completed = halrtc_complete(stacked, mask)
    return [matricize(t, 3).values for t in unstack_acquisitions(completed)]


def _stage(caught: list, where: dict, call, *args, **kwargs):
    """``call(*args, **kwargs)`` and its wall-clock seconds. Every warning
    the call raises is appended to ``caught`` as a manifest entry tagged
    with ``where``, and is not re-issued."""
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")
        start = time.perf_counter()
        result = call(*args, **kwargs)
        seconds = time.perf_counter() - start
    caught.extend({**where, "category": w.category.__name__, "message": str(w.message)}
                  for w in raised)
    return result, seconds


def _propagate(cfg: ExperimentConfig, fibers, omegas):
    """:func:`graphprop` on each acquisition's observed rows of its
    ``(n, channels)`` fiber array, with the configured k and solve method."""
    # graphprop is read from the module at call time, so a patched
    # harness.graphprop is the one called
    return graphprop([(f[om.observed], om) for f, om in zip(fibers, omegas)],
                     cfg.k, method=cfg.solver.method)


def _load_tensors(paths, shape=None) -> list[DenseTensor]:
    """The tensors stored at ``paths``; raises :class:`DataError` naming
    the first file whose shape is not ``shape`` (default: the first
    file's)."""
    tensors = [load_tensor(p) for p in paths]
    shape = shape or tensors[0].shape
    for t, p in zip(tensors, paths):
        if t.shape != shape:
            raise DataError(f"{p}: shape {t.shape} does not match {shape}")
    return tensors


def _save_fibers(cfg: ExperimentConfig, artifacts: list, name: str, values, shape) -> None:
    """Refold the fiber rows ``values`` to ``shape`` along its last mode,
    save the tensor as ``name`` in the output directory and list it in
    ``artifacts``."""
    save_tensor(refold(FiberMatrix(values), shape, len(shape)), _out_dir(cfg) / name)
    artifacts.append(name)


def _sweep_grid(cfg: ExperimentConfig) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Ranks and missing fractions of a synthetic run: rank-sweep varies
    the rank at ``missing_frac``, missing-sweep both, bound-report
    neither."""
    if cfg.kind == "rank-sweep":
        return cfg.rank_grid, (cfg.missing_frac,)
    if cfg.kind == "missing-sweep":
        return cfg.rank_tiles, cfg.missing_grid
    return (cfg.rank,), (cfg.missing_frac,)


def _synth_instance(cfg: ExperimentConfig, r: int, frac: float, *coords):
    """The seeded two-acquisition Tucker instance of rank ``r`` and its
    observation sets missing ``frac`` of the fibers; ``coords`` place it
    in the seed tree under ``cfg.seed``."""
    spec = SynthSpec(cfg.i1, cfg.i2, cfg.i3, r=r, lambda_count=2, missing_frac=frac,
                     seed=_derived_seed(cfg.seed, *coords, 0))
    tensors = generate_acquisitions(spec)
    omegas = sample_observation_sets(spec.n, frac, 2,
                                     seed=_derived_seed(cfg.seed, *coords, 1))
    return tensors, omegas


def _synth_point(cfg: ExperimentConfig, r: int, frac: float,
                 rep: int) -> tuple[list[ResultRow], list[dict]]:
    """One synthetic instance: generate, complete with the propagation
    pipeline and the low-rank baseline, report RMSE. Returns the rows and
    the manifest entries of the warnings raised."""
    tensors, omegas = _synth_instance(cfg, r, frac, _KIND_TAGS[cfg.kind], r,
                                      round(frac * 1e6), rep)
    fibers = [matricize(t, 3).values for t in tensors]

    coords = dict(
        experiment=cfg.kind, seed=cfg.seed, r=r,
        missing_frac=frac if cfg.kind == "missing-sweep" else None,
        area_frac=None, label_frac=None, repeat=rep,
    )
    where = dict(r=r, missing_frac=frac, repeat=rep)
    caught: list[dict] = []
    results, gp_time = _stage(caught, dict(where, method="graphprop"),
                              _propagate, cfg, fibers, omegas)
    ha_fibers, ha_time = _stage(caught, dict(where, method="halrtc"),
                                _halrtc_fibers, tensors, omegas)
    rows = [
        ResultRow(**coords, method=method, metric="rmse", variant="sqrt-mean",
                  value=rmse(ErrorField.from_completions(fibers, est, omegas)),
                  runtime=runtime)
        for method, est, runtime in (
            ("graphprop", [res.completed.values for res in results], gp_time),
            ("halrtc", ha_fibers, ha_time))
    ]
    return rows, caught


def _run_sweep(cfg: ExperimentConfig, *, write: bool = True) -> list[ResultRow]:
    """Completion quality of the propagation pipeline and the low-rank
    baseline: over the rank grid at a fixed missing fraction
    (``rank-sweep``), or over the missing-fraction grid with one tile per
    configured rank (``missing-sweep``). Every (rank, fraction, repeat)
    point of ``_sweep_grid`` runs serially or over ``cfg.workers``
    processes; the manifest notes list the warnings raised, in point order
    either way."""
    ranks, fracs = _sweep_grid(cfg)
    points = [(cfg, r, frac, rep) for r in ranks for frac in fracs
              for rep in range(cfg.repeats)]
    if cfg.workers <= 1:
        results = [_synth_point(*p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_synth_point, *zip(*points)))
    rows = [row for point_rows, _ in results for row in point_rows]
    if write:
        write_outputs(cfg, rows,
                      notes={"warnings": [w for _, caught in results for w in caught]})
    return rows


run_rank_sweep = run_missing_sweep = _run_sweep


def _metric_rows(coords: dict, method: str, ef: ErrorField, runtime: float) -> list[ResultRow]:
    values = [
        ("mse", "", mse(ef)),
        ("rmse", "sqrt-mean", rmse(ef)),
        ("mae", "", mae(ef)),
        ("mpsnr", "maxerr", mpsnr(ef, "maxerr")),
    ]
    return [
        ResultRow(**coords, method=method, metric=name, variant=variant,
                  value=value, runtime=runtime)
        for name, variant, value in values
    ]


def run_overlap_sim(cfg: ExperimentConfig, *, write: bool = True):
    """Partial-overlap simulation on a co-registered raster pair.

    The two rasters are loaded from ``cfg.inputs`` or synthesised (smooth
    raster pair). GTVM runs on the union graph :func:`graphprop` builds for
    each area fraction; metrics cover pixels observed at least once, and
    never-observed corners are flagged. Warnings raised by graphprop, GTVM
    and HaLRTC are recorded per area in the manifest notes, each tagged
    with its method.
    """
    if cfg.inputs:
        rasters = _load_tensors(cfg.inputs)
        if rasters[0].order != 3:
            raise DataError(f"{cfg.inputs[0]}: rasters must be (height, width, bands) "
                            f"tensors, got shape {rasters[0].shape}")
    else:
        rasters = smooth_raster_pair(
            cfg.height, cfg.width, cfg.bands,
            seed=_derived_seed(cfg.seed, _KIND_TAGS["overlap-sim"]),
        )
    h, w, bands = rasters[0].shape
    n = h * w
    truth_fibers = [matricize(t, 3).values for t in rasters]

    rows: list[ResultRow] = []
    notes: dict = {}
    artifacts: list[str] = []
    for area in cfg.area_grid:
        spec = OverlapSpec(h, w, area)
        mask1, mask2 = partial_overlap_masks(spec)
        omegas = [
            ObservationSet(n, np.nonzero(m.ravel(order="F"))[0])
            for m in (mask1, mask2)
        ]
        never_mask = ~(mask1 | mask2).ravel(order="F")
        never = np.nonzero(never_mask)[0]
        caught: list[dict] = []
        area_notes = notes[f"area={area}"] = {
            "crop_count": spec.crop_count,
            "achieved_frac": spec.achieved_frac,
            "never_observed": int(never.size),
            "warnings": caught,
        }
        coords = dict(experiment="overlap-sim", seed=cfg.seed, r=None,
                      missing_frac=None, area_frac=area, label_frac=None, repeat=0)

        estimates: dict[str, list[np.ndarray]] = {}
        timings: dict[str, float] = {}
        gp, timings["graphprop"] = _stage(caught, {"method": "graphprop"},
                                          _propagate, cfg, truth_fibers, omegas)
        estimates["graphprop"] = [r.completed.values for r in gp]
        estimates["gtvm"], timings["gtvm"] = _stage(
            caught, {"method": "gtvm"},
            lambda: [gtvm_inpaint(gp[0].graph, om, f[om.observed]).values
                     for f, om in zip(truth_fibers, omegas)])
        estimates["halrtc"], timings["halrtc"] = _stage(caught, {"method": "halrtc"},
                                                        _halrtc_fibers, rasters, omegas)

        pct = int(round(area * 100))
        for method in ("graphprop", "halrtc", "gtvm"):
            try:
                ef = ErrorField.from_completions(
                    truth_fibers, estimates[method], omegas, never_observed=never
                )
                rows.extend(_metric_rows(coords, method, ef, timings[method]))
            except NoMissingEntries:
                area_notes[method] = "NoMissingEntries"
                log.warning("area %s: no missing entries, metrics skipped", area)
            if write:
                for lam, est in enumerate(estimates[method], start=1):
                    _save_fibers(cfg, artifacts, f"completed_{method}_acq{lam}_area{pct:02d}.tenb",
                                 est, (h, w, bands))
        if write:
            _save_fibers(cfg, artifacts, f"never_observed_area{pct:02d}.tenb",
                         never_mask[:, None].astype(np.float64), (h, w, 1))
    if write:
        write_outputs(cfg, rows, notes=notes, artifacts=artifacts)
    return rows


def load_labels(path, n: int) -> np.ndarray:
    """Label file: one 0/1 integer per line, line i labelling node i;
    blank lines and '#' comments are skipped."""
    values = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(int(text))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: labels must be integers") from exc
    labels = np.asarray(values, dtype=np.int64)
    if labels.size != n:
        raise DataError(f"{path}: expected {n} labels, found {labels.size}")
    if not np.isin(labels, (0, 1)).all():
        raise DataError(f"{path}: labels must be 0 or 1")
    return labels


def run_blogs(cfg: ExperimentConfig, *, write: bool = True) -> list[ResultRow]:
    """Label propagation versus total-variation inpainting on a provided
    graph (or the synthetic two-block stand-in), scored by accuracy over
    the unlabelled nodes. Both methods label by one rule,
    :func:`~graphprop.propagation.median_threshold` at the median over the
    unlabelled nodes the steady-state solve reached, so mean-filled
    excluded nodes never move either threshold. Warnings raised by either
    method are recorded in the manifest notes with the label fraction,
    repeat and method."""
    if cfg.two_block_size > 0:
        edges, labels = two_block_graph(
            cfg.two_block_size, seed=_derived_seed(cfg.seed, _KIND_TAGS["blogs"], 0)
        )
    else:
        edges = load_edge_list(cfg.graph_file)
        labels = load_labels(cfg.labels_file, edges.n)
    graph = build_graph(edges)
    n = graph.n

    rows = []
    caught_warnings: list[dict] = []
    for frac in cfg.label_fracs:
        for rep in range(cfg.repeats):
            rng = np.random.default_rng(
                _derived_seed(cfg.seed, _KIND_TAGS["blogs"], 1, round(frac * 1e6), rep)
            )
            n_labelled = int(np.clip(round(frac * n), 1, n - 1))
            observed = np.sort(rng.choice(n, size=n_labelled, replace=False))
            om = ObservationSet(n, observed)
            f_obs = labels[observed].astype(np.float64)[:, None]
            coords = dict(experiment="blogs", seed=cfg.seed, r=None,
                          missing_frac=None, area_frac=None, label_frac=frac,
                          repeat=rep)

            where = dict(label_frac=frac, repeat=rep)
            res, gp_time = _stage(caught_warnings, dict(where, method="graphprop"),
                                  solve_steady_state, graph, om, f_obs,
                                  method=cfg.solver.method)
            est, gtvm_time = _stage(caught_warnings, dict(where, method="gtvm"),
                                    gtvm_inpaint, graph, om, f_obs)
            for method, values, runtime in (("graphprop", res.completed.values, gp_time),
                                            ("gtvm", est.values, gtvm_time)):
                pred = labels.copy()
                pred[om.missing] = median_threshold(values[:, 0], om.missing, res.filled_ids)
                rows.append(ResultRow(**coords, method=method, metric="accuracy",
                                      variant="", value=accuracy(pred, labels, om.missing),
                                      runtime=runtime))
    if write:
        write_outputs(cfg, rows, notes={"warnings": caught_warnings})
    return rows


def load_observation_set(path, n: int) -> ObservationSet:
    """Observation-set JSON: {"n": N, "observed": [...]} with 1-based ids."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or set(data) != {"n", "observed"}:
        raise DataError(f"{path}: expected exactly the keys 'n' and 'observed'")
    # type(...) is int: JSON true/false load as bool, a subclass of int
    if type(data["n"]) is not int or data["n"] != n:
        raise DataError(f"{path}: observation set is over {data['n']!r} nodes, tensor has {n}")
    ids = data["observed"]
    if not isinstance(ids, list) or not all(type(i) is int and 1 <= i <= n for i in ids):
        raise DataError(f"{path}: observed ids must be integers in 1..{n}")
    try:
        return ObservationSet(n, np.asarray(ids, dtype=np.int64) - 1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_observation_set(omega: ObservationSet, path) -> None:
    payload = {"n": omega.n, "observed": (omega.observed + 1).tolist()}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def run_complete(cfg: ExperimentConfig, *, write: bool = True):
    """Generic completion of user-supplied acquisitions; a thin shell over
    the library pipeline. The manifest notes list the nodes missing in
    every acquisition (``never_observed``; :func:`graphprop` warns about
    them) and each acquisition's excluded, mean-filled nodes. With
    ``truth_files`` set it also writes ``bound_report.json`` and returns
    the reports, otherwise ``None``."""
    tensors = _load_tensors(cfg.inputs)
    shape = tensors[0].shape
    order = len(shape)
    n = int(np.prod(shape[:-1]))
    omegas = [load_observation_set(p, n) for p in cfg.observation_files]

    caught: list[dict] = []
    results, _ = _stage(caught, {"method": "graphprop"}, _propagate, cfg,
                        [matricize(t, order).values for t in tensors], omegas)
    notes = {
        "never_observed": functools.reduce(
            np.intersect1d, [om.missing for om in omegas]).tolist(),
        "excluded_per_acquisition": [r.excluded_ids.tolist() for r in results],
        "warnings": caught,
    }
    artifacts: list[str] = []
    if write:
        for i, res in enumerate(results, start=1):
            _save_fibers(cfg, artifacts, f"completed_acq{i}.tenb", res.completed.values, shape)
    reports = None
    if cfg.truth_files:
        truths = _load_tensors(cfg.truth_files, shape)
        reports = [
            evaluate_bounds(res.graph, om, matricize(t, order), res.completed)
            for om, t, res in zip(omegas, truths, results)
        ]
    if write:
        write_outputs(cfg, [], notes=notes, artifacts=artifacts, reports=reports)
    return results, reports


def run_bound_report(cfg: ExperimentConfig, *, write: bool = True):
    """Bound quantities and measured errors on one synthetic instance;
    raises :class:`BoundViolation` if a computed bound is violated (it
    never should be on noiseless observations)."""
    tensors, omegas = _synth_instance(cfg, cfg.rank, cfg.missing_frac,
                                      _KIND_TAGS["bound-report"])
    fibers = [matricize(t, 3).values for t in tensors]
    caught: list[dict] = []
    results, _ = _stage(caught, {"method": "graphprop"}, _propagate, cfg, fibers, omegas)
    reports = []
    for om, f, res in zip(omegas, fibers, results):
        report = evaluate_bounds(res.graph, om, f, res.completed)
        if report.applicable and report.measured_error > report.bound:
            raise BoundViolation(
                f"bound violated: measured {report.measured_error} > bound {report.bound}"
            )
        reports.append(report)
    if write:
        write_outputs(cfg, [], notes={"warnings": caught}, reports=reports)
    return reports


_RASTER_DTYPES = {"f64": "<f8", "f32": "<f4", "u8": "u1", "u16": "<u2"}


def convert_raster(input_path, sidecar_path, output_path) -> DenseTensor:
    """Convert a band-interleaved-by-pixel flat binary raster (values
    ordered band, then column, then row) with a JSON sidecar carrying
    height/width/bands/dtype into the tensor container format."""
    try:
        meta = json.loads(Path(sidecar_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{sidecar_path}: not valid JSON: {exc}") from exc
    required = {"height", "width", "bands", "dtype"}
    if not isinstance(meta, dict) or not required.issubset(meta):
        raise DataError(f"{sidecar_path}: needs keys {sorted(required)}")
    h, w, bands = meta["height"], meta["width"], meta["bands"]
    if not all(type(v) is int and v >= 1 for v in (h, w, bands)):
        raise DataError(f"{sidecar_path}: extents must be positive JSON integers")
    if meta["dtype"] not in _RASTER_DTYPES:
        raise DataError(
            f"{sidecar_path}: dtype must be one of {sorted(_RASTER_DTYPES)}"
        )
    raw = np.fromfile(input_path, dtype=_RASTER_DTYPES[meta["dtype"]])
    if raw.size != h * w * bands:
        raise DataError(
            f"{input_path}: holds {raw.size} values, sidecar implies {h * w * bands}"
        )
    try:
        tensor = DenseTensor.from_array(raw.reshape(h, w, bands).astype(np.float64))
    except ValueError as exc:
        raise DataError(f"{input_path}: {exc}") from exc
    save_tensor(tensor, output_path)
    return tensor
