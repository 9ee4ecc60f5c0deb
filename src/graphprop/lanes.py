"""Lanes: threads that share one call's independent pieces of work.

Three sites run on lanes: the brute-force kNN row blocks
(:mod:`graphprop.graph`), HaLRTC's per-mode shrinks
(:mod:`graphprop.baselines`), and :func:`~graphprop.propagation.graphprop`'s
per-acquisition kNN searches and steady-state solves. Each site asks
:func:`lane_cpus` for the CPUs it may fill and caps that by its own limits.
:func:`run_lanes` then runs the pieces: the calling thread is lane 0 and
pool threads the rest, and each lane claims the lowest unclaimed piece
under a lock until none is left. Each piece writes only its own result,
and the site combines the results in piece order, so its output is the
same at any lane count; a failure raises the lowest failing piece's error.
Each site allocates the lanes' large buffers in the calling thread where
it can: a buffer allocated in a pool thread comes from that thread's own
malloc arena, which raised the peak resident set by 2-3 MiB on 96x96x24
brute-force kNN inputs.

One call has one lane budget: no lane starts lanes of its own. So
``graphprop()`` runs its searches on the calling thread, one after
another, whenever they take the brute-force path, whose row blocks have
lanes already. ``graphprop()`` also keeps calls below its work gate
(``propagation.LANE_MIN_WORK``, nodes times channels) on one lane, where
lanes would contend for the interpreter lock more than they share work.

No piece calls a layer function that perfbench's tracer wraps (the
module attributes listed in ``perfbench/spans.py``): the tracer keeps one
span stack and times calls on the calling thread only. So HaLRTC refolds
on the calling thread, and ``graphprop()`` on lanes runs the private parts
of ``knn_edges`` and ``solve_steady_state``, which it calls by name only
on one lane.

A site's pool lives inside one call and starts no thread before its first
submit, so importing the package starts none and no thread outlives the
call. The harness's ``workers`` > 1 runs points in separate processes, and
each process starts its own lanes.
"""
from __future__ import annotations

import contextvars
import os
import threading


def lane_cpus() -> int:
    """The CPUs the lanes may fill: those this process may run on (its
    affinity set where the platform has one, else every CPU), but only one
    unless the environment pins OpenBLAS, which numpy's wheels bundle, to
    one thread per call (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
    is 1). Every lane's piece is mostly BLAS and LAPACK calls, and lanes
    whose calls each start BLAS threads contend for the same CPUs. With
    OpenBLAS's default threads on 2 CPUs, two brute-force kNN lanes took a
    5,530x24 search from 75-90 ms to 100-128 ms, and two HaLRTC lanes took
    a rank-40 100x100x3x2 completion from 0.98-1.27 s to 1.11-1.29 s (five
    runs each)."""
    if os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_lanes(pool, lanes: int, count: int, work) -> None:
    """Run ``work(i, lane)`` for every ``i`` in ``range(count)`` on
    ``lanes`` lanes: lane 0 on the calling thread, lanes 1 to ``lanes - 1``
    submitted to ``pool``. Each lane claims the lowest unclaimed ``i`` until
    none is left. Returns when every lane is done.

    An exception a piece raises is kept, and no piece is claimed after it;
    once every lane is done, the exception of the lowest failing piece is
    raised. Pieces are claimed in increasing order, so every piece below a
    failing one has run: the call fails with the same error at any lane
    count, as one lane would."""
    unclaimed = iter(range(count))
    claim = threading.Lock()
    errors: dict[int, Exception] = {}

    def lane(index):
        while True:
            with claim:
                i = None if errors else next(unclaimed, None)
            if i is None:
                return
            try:
                work(i, index)
            except Exception as exc:  # raised in piece order below
                with claim:
                    errors[i] = exc

    # Pool threads run in a copy of the caller's context, so the caller's
    # np.errstate holds on every lane where numpy keeps it in a context
    # variable (numpy 2; numpy 1 keeps it per thread).
    helpers = [pool.submit(contextvars.copy_context().run, lane, index)
               for index in range(1, lanes)]
    lane(0)
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
