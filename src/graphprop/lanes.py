"""Lanes: threads that share one call's independent pieces of work.

Two sites run on lanes: HaLRTC's per-mode shrinks
(:mod:`graphprop.baselines`), and :func:`~graphprop.propagation.graphprop`'s
per-acquisition kNN searches, kd-tree and brute-force alike, and
steady-state solves. Each site asks :func:`lane_cpus` for the CPUs it may
fill and caps that by its own limits: ``graphprop()`` keeps calls below
its work gate (``propagation.LANE_MIN_WORK``, nodes times channels) on
one lane, where lanes would contend for the interpreter lock more than
they share work. :func:`run_lanes` then runs the pieces: the calling
thread is lane 0 and pool threads the rest, and each lane claims the
lowest unclaimed piece under a lock until none is left. Each piece writes
only its own result, and the site combines the results in piece order,
so its output is the same at any lane count; a failure raises the lowest
failing piece's error. No piece starts lanes of its own.

Each site allocates the lanes' large buffers in the calling thread where
it can: a buffer allocated in a pool thread comes from that thread's own
malloc arena, which keeps the memory after the call. A brute-force kNN
search is the exception: it allocates its block on its own acquisition
lane, where the whole search runs. On ``perfbench``'s ``hyper-96`` (two
96x96x24 acquisitions, 2 CPUs) that raised ``peak_rss_mb`` from 124.6 to
130.4 MiB, the pool thread's arena holding the second search's working
set, while the traced peak of one ``graphprop()`` call fell from 14.6 to
13.5 MiB.

A lane piece keeps its numpy calls few. Each call takes and hands back
the interpreter lock, and lanes issuing many small calls queue on it:
on 2 CPUs with one BLAS thread, a 3-call elementwise loop on 7x2772
arrays ran at 0.60-0.74x the speed on two threads as on one. So a
brute-force kNN search's row blocks do their work in whole-array calls
(one reduce for the group minima, one running sum for the exact
distances) instead of loops over column groups or channels.

No piece calls a layer function that perfbench's tracer wraps (the
module attributes listed in ``perfbench/spans.py``): the tracer keeps one
span stack and times calls on the calling thread only. So HaLRTC refolds
on the calling thread, and ``graphprop()`` calls ``knn_edges`` and
``solve_steady_state`` by name only on one lane; on lanes it runs
``graph._knn_observed`` and ``propagation.solve_reachable``, the one solve.

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
    OpenBLAS's default threads on 2 CPUs, two lanes over the row blocks of
    one 5,530x24 brute-force kNN search took it from 75-90 ms to 100-128
    ms, and two HaLRTC lanes took
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
