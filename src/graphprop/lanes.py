"""Lanes: threads that share one call's independent pieces of work.

Two sites run on lanes: the brute-force kNN row blocks
(:mod:`graphprop.graph`) and HaLRTC's per-mode shrinks
(:mod:`graphprop.baselines`). Each site asks :func:`lane_cpus` for the
CPUs it may fill and caps that by its own limits. :func:`run_lanes` then
runs the pieces: the calling thread is lane 0 and pool threads the rest,
and each lane claims the lowest unclaimed piece under a lock until none is
left. Each piece writes only its own result, and the site combines the
results in piece order, so its output is the same at any lane count.
Each site allocates the lanes' large buffers in the calling thread: a
buffer allocated in a pool thread comes from that thread's own malloc
arena, which raised the peak resident set by 2-3 MiB on 96x96x24
brute-force kNN inputs.

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
    none is left. Returns when every lane is done; an exception a lane
    raises is raised here."""
    unclaimed = iter(range(count))
    claim = threading.Lock()

    def lane(index):
        while True:
            with claim:
                i = next(unclaimed, None)
            if i is None:
                return
            work(i, index)

    # Pool threads run in a copy of the caller's context, so the caller's
    # np.errstate holds on every lane where numpy keeps it in a context
    # variable (numpy 2; numpy 1 keeps it per thread).
    helpers = [pool.submit(contextvars.copy_context().run, lane, index)
               for index in range(1, lanes)]
    lane(0)
    for helper in helpers:
        helper.result()
