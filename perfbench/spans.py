"""In-memory spans around graphprop's layer functions.

Tracing replaces each layer function at the module attribute its callers
look up (``graphprop.propagation.knn_edges`` for ``graphprop()``,
``graphprop.harness.knn_edges`` for the harness runners, ``graphprop.knn_edges``
for this benchmark) with a wrapper that records a span: name, start, end,
parent, and counts taken from the call's arguments or result. The library
itself is not edited; ``Tracer.uninstall`` puts every original back.

Spans are only recorded under an open root (one set-up or one op), so
calls the benchmark makes while checking outputs never count.
"""
from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _edges(args, kwargs, result):
    return {"edges": result.adjacency.nnz // 2}


def _solve(args, kwargs, result):
    return {
        "cg_iters": result.stats.iterations,
        "unconverged": int(not result.stats.converged),
        "excluded": int(result.excluded_ids.size),
    }


def _order(args, kwargs, result):
    return {"order": args[0].order}


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _io_bytes(args, kwargs, result):
    # load_tensor(path), load_observation_set(path, n), save_tensor(t, path),
    # save_observation_set(omega, path): the path is the only str-like argument.
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    return {"bytes": _path_bytes(path)}


# (span name, call sites that look the function up, counter). Each call
# site is "module:attribute", or "module:Class.attribute" for a classmethod.
LAYER_FUNCTIONS = (
    ("graph.knn", ("graphprop.propagation:knn_edges", "graphprop.harness:knn_edges",
                   "graphprop:knn_edges"), None),
    ("graph.union", ("graphprop.propagation:union_edges", "graphprop.harness:union_edges",
                     "graphprop:union_edges"), None),
    ("graph.build", ("graphprop.propagation:build_graph", "graphprop.harness:build_graph",
                     "graphprop:build_graph"), _edges),
    ("graph.blocks", ("graphprop.bounds:partition_blocks",), None),
    ("propagation.graphprop", ("graphprop.harness:graphprop", "graphprop:graphprop"), None),
    ("propagation.solve", ("graphprop.propagation:solve_steady_state",
                           "graphprop.harness:solve_steady_state"), _solve),
    ("bounds.evaluate", ("graphprop.harness:evaluate_bounds",), None),
    ("bounds.psi", ("graphprop.bounds:compute_psi",), None),
    ("bounds.phi", ("graphprop.bounds:compute_phi",), None),
    ("bounds.gtvm_bound", ("graphprop.bounds:gtvm_bound",), None),
    ("bounds.spectral_norm", ("graphprop.bounds:spectral_norm",
                              "graphprop.baselines:spectral_norm"), None),
    ("baselines.halrtc", ("graphprop.harness:halrtc_complete",), _order),
    ("baselines.gtvm", ("graphprop.harness:gtvm_inpaint", "graphprop:gtvm_inpaint"), None),
    ("tensor.matricize", ("graphprop.baselines:matricize", "graphprop.harness:matricize",
                          "graphprop.datagen:matricize", "graphprop:matricize"), None),
    ("tensor.refold", ("graphprop.baselines:refold", "graphprop.harness:refold",
                       "graphprop.datagen:refold"), None),
    ("tensor.io", ("graphprop.harness:load_tensor", "graphprop.harness:save_tensor",
                   "graphprop.harness:load_observation_set",
                   "graphprop.harness:save_observation_set", "graphprop:save_tensor"),
     _io_bytes),
    ("datagen", ("graphprop.harness:generate_acquisitions",
                 "graphprop.harness:sample_observation_sets",
                 "graphprop.harness:smooth_raster_pair",
                 "graphprop.harness:partial_overlap_masks",
                 "graphprop:generate_acquisitions", "graphprop:sample_observation_sets",
                 "graphprop:smooth_raster_pair", "graphprop:partial_overlap_masks"), None),
    ("metrics", ("graphprop.harness:rmse", "graphprop.harness:mse", "graphprop.harness:mae",
                 "graphprop.harness:mpsnr",
                 "graphprop.metrics:ErrorField.from_completions"), None),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int | None:
        if not self._stack and not name.startswith("root."):
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int | None) -> None:
        if idx is None:
            return
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def root(self, name: str):
        return _Root(self, "root." + name)

    # -- patching ----------------------------------------------------------
    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if idx is not None and counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Patch every call site; returns the sites the program no longer
        has, whose layer then reads 0."""
        if self._saved:
            raise RuntimeError("tracing is already installed")
        missing = []
        for name, sites, counter in LAYER_FUNCTIONS:
            for site in sites:
                module_name, attr = site.split(":")
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr)
                else:
                    original = getattr(owner, attr, None)
                if original is None:
                    missing.append(site)
                    continue
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__, counter))
                else:
                    patched = self._wrap(name, original, counter)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, patched)
        return missing

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.spans.clear()

    def children_index(self) -> dict[int | None, list[int]]:
        kids: dict[int | None, list[int]] = {}
        for i, span in enumerate(self.spans):
            kids.setdefault(span.parent, []).append(i)
        return kids

    def check_nesting(self) -> None:
        """Every child lies inside its parent and the children of one span
        sum to at most its duration; raises otherwise."""
        kids = self.children_index()
        for idx, span in enumerate(self.spans):
            children = [self.spans[k] for k in kids.get(idx, ())]
            for child in children:
                if child.start < span.start or child.end > span.end:
                    raise RuntimeError(f"span {child.name} exceeds its parent {span.name}")
            # Allow for rounding in the sum of many clock differences.
            if sum(c.seconds for c in children) > span.seconds + 1e-9:
                raise RuntimeError(f"children of span {span.name} exceed it")


class _Root:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.index = tracer, name, None

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def _descendants(kids, idx: int) -> list[int]:
    out, todo = [], [idx]
    while todo:
        below = kids.get(todo.pop(), [])
        out.extend(below)
        todo.extend(below)
    return out


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer figures for the op recorded under span ``root``."""
    kids = tracer.children_index()
    below = _descendants(kids, root)
    spans = [tracer.spans[i] for i in below]
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    # Each ADMM iteration refolds once per mode of the stacked tensor.
    halrtc_iters = 0.0
    for i in below:
        span = tracer.spans[i]
        if span.name == "baselines.halrtc":
            refolds = sum(1 for j in _descendants(kids, i)
                          if tracer.spans[j].name == "tensor.refold")
            halrtc_iters += refolds / span.counts["order"]
    builds = calls.get("graph.build", 0)
    direct = sum(tracer.spans[k].seconds for k in kids.get(root, ()))
    return {
        "graph.knn_s": seconds.get("graph.knn", 0.0),
        "graph.knn_calls": calls.get("graph.knn", 0),
        "graph.union_s": seconds.get("graph.union", 0.0),
        "graph.build_s": seconds.get("graph.build", 0.0),
        "graph.builds": builds,
        "graph.edges": total("graph.build", "edges") / builds if builds else 0,
        "graph.blocks_s": seconds.get("graph.blocks", 0.0),
        "propagation.graphprop_s": seconds.get("propagation.graphprop", 0.0),
        "propagation.solve_s": seconds.get("propagation.solve", 0.0),
        "propagation.solves": calls.get("propagation.solve", 0),
        "propagation.cg_iters": total("propagation.solve", "cg_iters"),
        "propagation.unconverged": total("propagation.solve", "unconverged"),
        "propagation.excluded_nodes": total("propagation.solve", "excluded"),
        "bounds.evaluate_s": seconds.get("bounds.evaluate", 0.0),
        "bounds.psi_s": seconds.get("bounds.psi", 0.0),
        "bounds.phi_s": seconds.get("bounds.phi", 0.0),
        "bounds.gtvm_bound_s": seconds.get("bounds.gtvm_bound", 0.0),
        "bounds.spectral_norm_s": seconds.get("bounds.spectral_norm", 0.0),
        "bounds.spectral_norm_calls": calls.get("bounds.spectral_norm", 0),
        "baselines.halrtc_s": seconds.get("baselines.halrtc", 0.0),
        "baselines.halrtc_iters": halrtc_iters,
        "baselines.gtvm_s": seconds.get("baselines.gtvm", 0.0),
        "tensor.unfold_s": seconds.get("tensor.matricize", 0.0)
        + seconds.get("tensor.refold", 0.0),
        "tensor.io_s": seconds.get("tensor.io", 0.0),
        "tensor.io_bytes": total("tensor.io", "bytes"),
        "datagen.op_s": seconds.get("datagen", 0.0),
        "metrics.s": seconds.get("metrics", 0.0),
        "harness.self_s": tracer.spans[root].seconds - direct,
    }
