"""kNN edge sets over observed fibers, edge-set unions, adjacency assembly
(of one edge set or, from one key sort, the union of several), the
observed/unknown block split, and id-set complements (from a mask, no
sort).

An edge set lists node-id pairs in either orientation. Only
:func:`build_graph` gives edges a canonical form: one sort of the pair keys
of both orientations symmetrises the pairs, collapses reversed and repeated
ones and leaves the CSR arrays in order.

kNN is exact: each observed fiber links to its k nearest by float64
Euclidean distance, ties to the smaller node id. Up to
``KDTREE_MAX_CHANNELS`` channels a kd-tree finds them; above, a blocked
brute-force pass in float32 shortlists candidates within a rigorous
rounding allowance and exact float64 distances select among them. The
features are scaled by a power of two first (:func:`peak_exponent`), so
the edges are the same at any power-of-two scale of the input, up to
feature sets whose own dynamic range in squared distance exceeds about
1e300. The steady-state solves
(:func:`~graphprop.propagation.solve_reachable`) and
:func:`~graphprop.bounds.frobenius_norm` apply the same rule, so
completions and bound scalars scale with the input too.

A search starts no thread: the brute force runs its row blocks one after
another, one ``_BRUTE_BLOCK`` of float32 distances at a time, on the
thread that calls it, and gathers their shortlists into batches of about
``_BRUTE_BATCH`` pairs, each given one exact float64 selection.
:func:`~graphprop.propagation.graphprop` runs the acquisitions' searches
on lanes of its own (:mod:`graphprop.lanes`).

Node ids are 0-based throughout the Python API; the text edge-list format
uses 1-based ids.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DataError, NonFiniteInput, TooFewObserved
from .tensor import FiberMatrix

# A kd-tree searches up to this many channels, the blocked brute force above.
# The cut-off is not tuned: the faster path follows the fibers' intrinsic
# dimension, not their channel count. At 96x96, k = 10, one BLAS thread and two
# lanes on 2 CPUs, the tree took 23-35 ms against 58-69 ms on smooth rasters of
# 4-14 channels, but 107 ms against 66 ms on rank-10 Tucker fibers of 6 channels.
KDTREE_MAX_CHANNELS = 16

# Distance-matrix entries of one brute-force row block, in float32 (2 MB),
# so two acquisition lanes of graphprop() hold 1,000,000 in flight. On one
# thread 250k-entry blocks ran no slower than 1M, smaller ones up to about
# twice as slow.
_BRUTE_BLOCK = 500_000

# Shortlisted pairs of one brute-force exact selection: row blocks append
# their shortlists to a pending batch, and one _nearest_k call and one sort
# run once it holds this many pairs, and after the last block. A 5,530x24
# search shortlists about 55,700 pairs in 62 blocks of 90 rows, so each of
# perfbench's hyper-96 searches takes 4 passes at this budget. There
# point_rel and peak_rss_mb (medians of 5 runs on 2 CPUs, one BLAS thread,
# two acquisition lanes) read 9.31 ref and 129.9 MiB with a pass per
# block, 8.68 and 130.6 at 4,096 pairs, 8.43 and 130.5 at 16,384, 8.74 and
# 132.1 at 65,536 and 8.57 and 132.4 in one pass: a pool thread's malloc
# arena keeps a larger batch's memory.
_BRUTE_BATCH = 16_384

# Float64 feature differences per chunk of _squared_distances (512 KiB): a
# brute-force batch of 16,384 pairs takes six chunks at 24 channels, and a
# duplicate-heavy batch of any size holds two chunks at a time.
_DISTANCE_CHUNK = 1 << 16

# Relative gap under which two kd-tree distances count as tied.
_TIE_RTOL = 1e-12

# The largest node count whose pair keys u * n + v (at most n**2 - 1) fit
# int32: 46,340**2 < 2**31 <= 46,341**2.
_INT32_KEY_NODES = 46_340


def peak_exponent(values: np.ndarray) -> int:
    """The ``np.frexp`` exponent e of the largest ``|value|`` (0 when every
    value is 0), so ``np.ldexp(values, -e)`` peaks in [0.5, 1). Scaling by
    a power of two is exact barring underflow, so a computation that
    commutes with such scales, run on the scaled values with its result
    scaled back by ``2**e``, gives the same bits at any power-of-two scale
    of the input, and its squares neither underflow nor overflow."""
    return int(np.frexp(np.max(np.abs(values)))[1])


def as_node_ids(ids) -> np.ndarray:
    """``ids`` as an int64 array. Raises ``ValueError`` unless they have an
    integer dtype: a boolean mask or float ids would otherwise be cast,
    ``[True, False]`` to ids 1 and 0 and 1.9 to 1. An empty input is legal
    whatever its dtype (numpy reads ``[]`` as float64)."""
    arr = np.asarray(ids)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"node ids must be integers, got dtype {arr.dtype} "
                         "(for a mask, take its np.flatnonzero)")
    return arr.astype(np.int64, copy=False)


def complement(n: int, ids) -> np.ndarray:
    """The ids of ``range(n)`` not in ``ids``, in increasing order, read
    from a boolean mask in O(n) (no sort)."""
    kept = np.ones(n, dtype=bool)
    kept[ids] = False
    return np.flatnonzero(kept)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Ids of the fully observed fibers of one acquisition, in any order
    and of an integer dtype (:func:`as_node_ids`); kept sorted and
    read-only."""

    n: int
    observed: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("node count must be positive")
        ids = np.sort(as_node_ids(self.observed).ravel())
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise ValueError(f"observed ids must lie in [0, {n})")
        if ids.size > 1 and np.any(np.diff(ids) == 0):
            raise ValueError("observed ids must be unique")
        ids.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "observed", ids)

    @cached_property
    def missing(self) -> np.ndarray:
        """Complement ids, in increasing order."""
        out = complement(self.n, self.observed)
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """Undirected edges without self-loops, as (u, v) rows in either
    orientation and in any order; a reversed or repeated row is the same
    edge. The rows are a read-only int64 copy of the input, which must
    have an integer dtype (:func:`as_node_ids`)."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("node count must be positive")
        arr = as_node_ids(np.array(self.edges))
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be given as (E, 2) pairs")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(f"edge endpoints must lie in [0, {n})")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", arr)


def _squared_distances(pts: np.ndarray, rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The squared feature distance of each (row, candidate) pair, summed
    channel by channel in channel order, so identical differences give
    identical values.

    The pairs go in chunks of at most ``_DISTANCE_CHUNK`` float64
    differences (one pair when a pair has more channels), each a
    ``(channels, pairs)`` array whose squares one ``np.add.accumulate``
    sums in place: its last row is the channel-by-channel running sum bit
    for bit, where a pairwise ``np.add.reduce`` is not. Memory is two
    chunks plus the result.
    """
    dist2 = np.empty(rows.size)
    step = max(1, _DISTANCE_CHUNK // pts.shape[1])
    for lo in range(0, rows.size, step):
        diff = pts[cands[lo:lo + step]]
        diff -= pts[rows[lo:lo + step]]
        diff = np.multiply(diff, diff, out=diff).T
        dist2[lo:lo + step] = np.add.accumulate(diff, axis=0, out=diff)[-1]
    return dist2


def _nearest_k(
    pts: np.ndarray, rows: np.ndarray, cands: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick k candidates per row by (exact distance, smaller id).

    ``rows`` and ``cands`` are flat, equally long arrays of point indices,
    each row given at least k candidates other than itself. A row given
    exactly k keeps them as they are; for the others the exact distance
    is the square root of :func:`_squared_distances`. Memory is two of its
    chunks of ``_DISTANCE_CHUNK`` float64 values plus a few arrays of the
    pair count.
    """
    few = np.bincount(rows, minlength=pts.shape[0])[rows] <= k
    kept_rows, kept_cands = rows[few], cands[few]
    rows, cands = rows[~few], cands[~few]
    dist = np.sqrt(_squared_distances(pts, rows, cands))
    order = np.lexsort((cands, dist, rows))
    rows, cands = rows[order], cands[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < k
    return np.concatenate([kept_rows, rows[keep]]), np.concatenate([kept_cands, cands[keep]])


def _knn_neighbors_tree(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed kNN relations via an exact kd-tree query.

    A row whose k-th and (k+1)-th tree distances are equal up to rounding
    is a tie row: its candidates are every point in a ball slightly wider
    than the k-th distance, chosen by :func:`_nearest_k` (exact distance,
    then smaller id).
    """
    # Imported here, not at module level: loading scipy.spatial adds 5-7 MiB
    # of resident memory and about 0.1 s (scipy 1.17), and a process whose
    # searches all take the brute-force path never needs it.
    from scipy.spatial import cKDTree

    n_obs = pts.shape[0]
    tree = cKDTree(pts)
    kk = k + 2  # one slot for self plus one to certify the boundary
    dists, idxs = tree.query(pts, k=kk)
    # Distances to *other* points: self's distance becomes infinite, so it
    # sorts last and is never within a row's k-th distance.
    dists[idxs == np.arange(n_obs)[:, None]] = np.inf
    other_d = np.sort(dists, axis=1)
    dk = other_d[:, k - 1]
    # The tree's distances and the exact ones differ by rounding, so a gap
    # below _TIE_RTOL does not certify the boundary.
    tied = other_d[:, k] <= dk * (1.0 + _TIE_RTOL)
    del other_d

    sel = dists <= dk[:, None]
    sel[tied] = False
    rows, cols = np.nonzero(sel)
    src = [rows]
    dst = [idxs[rows, cols]]
    tie = np.nonzero(tied)[0]
    if tie.size:
        radius = dk[tie] * (1.0 + 2.0 * _TIE_RTOL) + 1e-300
        balls = tree.query_ball_point(pts[tie], radius)
        counts = np.fromiter(map(len, balls), dtype=np.int64, count=tie.size)
        rows = np.repeat(tie, counts)
        cands = np.concatenate(balls)
        other = cands != rows
        rows, cands = _nearest_k(pts, rows[other], cands[other], k)
        src.append(rows)
        dst.append(cands)
    return np.concatenate(src), np.concatenate(dst)


def _knn_neighbors_brute(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Directed kNN relations by blocked brute force: a float32 filter
    shortlists, exact float64 distances select.

    The points are centred and scaled by a power of two into (-1, 1), then
    cast to float32. Per block of rows, one float32 GEMM against the
    column operand times -2 plus the (shrunk) squared column norms gives
    each pair's squared distance less the row's own squared norm, which
    does not change a row's order. The row's k-th smallest group minimum
    (column groups of about eight) bounds its k-th smallest value from
    above; every column within a rigorous rounding allowance of it is
    shortlisted, and :func:`_nearest_k` picks k by exact float64 distance,
    then smaller id, so the float32 pass only narrows the candidates.

    The row blocks run one after another on the calling thread, through
    one block of at most ``_BRUTE_BLOCK`` float32 values (2 MB; one row
    when a row holds more), one boolean shortlist mask of its shape and one
    buffer of its group minima (an eighth of its size), allocated once. A
    block issues about thirty numpy calls, none per row, channel or column
    group: the GEMM, the NaN diagonal, the group minima, the k-th bound,
    the shortlist mask and its pair keys ``row * n_obs + candidate``,
    which it appends to a pending batch. Once the batch holds
    ``_BRUTE_BATCH`` pairs, and after the last block, one
    :func:`_nearest_k` call and one sort of the kept keys select its
    relations, so the batch holds at most the budget plus one block's
    shortlist, which is about k pairs per row, besides two chunks of
    :func:`_squared_distances`. Few calls per block and per pair keep a
    search's calls few on one of
    :func:`~graphprop.propagation.graphprop`'s lanes (see
    :mod:`graphprop.lanes`). A row's pairs lie in one block and so in one
    batch, its selection does not depend on which rows share the call, and
    the batches run in row order, so their concatenation is sorted by
    (row, neighbour): the same arrays at any block size and any budget.
    """
    n_obs, m = pts.shape
    # Distances do not change under translation; centring keeps the
    # squared norms, and with them the rounding allowance, small. The
    # power-of-two scale is exact; it is capped at 2**470 (see below).
    centred = pts - pts.mean(axis=0)
    e = max(int(np.frexp(np.max(np.abs(centred)))[1]), -470)
    x = np.ldexp(centred, -e, out=centred)
    sq = np.einsum("ij,ij->i", x, x)
    # Rounding allowance. Write a_i = |x_i|^2, t_ij = |x_i - x_j|^2,
    # u = 2**-24, lam = 2**-126 (float32's smallest normal) and
    # g_n = n u / (1 - n u). Every float32 result is its exact value times
    # (1 + d), |d| <= u, plus an underflow error of at most lam (gradual
    # underflow or flush to zero), and |x| < 1.
    # - Inputs: y = float32(x) has |y - x| <= u|x| + lam per entry, so
    #   |y_i.y_j - x_i.x_j| <= (u + u^2/2)(a_i + a_j) + 2.01 m lam.
    # - GEMM: y_i against -2 y_j (exact) in any summation order, with or
    #   without fused multiply-add, errs by at most g_m times
    #   2 sum|y_i||y_j| <= (1 + u)^2 (a_i + a_j) + 4.02 m lam, plus 2.2 m
    #   lam of underflow.
    # - Column term: float32((1 - c) a_j) from the float64 a_j errs by at
    #   most 1.01 u a_j + lam; adding it to the GEMM value errs by at most
    #   u (1.08 a_i + 2.09 a_j) + 1.5 lam.
    # With g_m <= c <= 1/14 these sum to: the filter value F_ij stays within
    # c0 (a_i + a_j) + t0 of t_ij - a_i - c a_j, with c0 = g_{m+6} and
    # t0 = 9 m lam. Shrinking the column term by c a_j charges each pair
    # its own share, so one far-off point cannot widen every row's
    # shortlist: a true neighbour j of row i has
    # F_ij <= t_ij - a_i + c0 a_i + t0. The k-th smallest group minimum
    # kth_i is the largest F over k distinct columns L (the row itself is
    # NaN, never among them), and j is no farther than some l in L, whose
    # t_il <= kth_i + a_i + c0 a_i + 2c a_l + t0; as a_l <= 2 a_i + 2 t_il,
    # a_l <= 3 (a_i + w_i + t0) with w_i = max(kth_i + a_i, 0). So
    #     F_ij <= kth_i + 2 c0 a_i + 6c (a_i + w_i) + 3 t0.
    # The shortlist bound kth_i + 8c (a_i + w_i) + 28 m lam, rounded up to
    # float32, exceeds this by at least 2u a_i + 2c w_i, with
    # c = 1.1 (m + 7) u >= g_{m+7} >= c0 + u. That margin covers what
    # float64 adds: the centring, the exact distances' own rounding and
    # the bound's arithmetic, all within 2**-30 (a_i + w_i) up to a million
    # channels. Their underflow, at most m 2**-1074 per distance in feature
    # units, is m 2**-134 after the capped scale, inside the 28 m lam.
    u = 2.0**-24
    c = 1.1 * (m + 7) * u
    tau = 28 * m * float(np.finfo(np.float32).tiny)
    if c > 1 / 14:  # past about 1.09 million channels: keep every column
        c, tau = 0.0, np.inf
    y = x.astype(np.float32)
    cols = -2.0 * y.T
    col_sq = ((1.0 - c) * sq).astype(np.float32)
    # Group g holds the columns g, g + groups, g + 2 groups, ...; at least
    # k + 1 groups leave k whose minimum is not the row's own NaN. One
    # reduce over the whole rounds of groups and one minimum with the
    # ragged tail form a block's group minima.
    groups = max(k + 1, -(-n_obs // 8))
    tail = n_obs % groups
    whole = n_obs - tail
    rows_per_block = max(1, _BRUTE_BLOCK // n_obs)
    block = np.empty((rows_per_block, n_obs), dtype=np.float32)
    mask = np.empty((rows_per_block, n_obs), dtype=bool)
    group_min = np.empty((rows_per_block, groups), dtype=np.float32)
    flat = block.reshape(-1)
    up = np.float32(np.inf)
    found, pending, pending_pairs = [], [], 0
    for start in range(0, n_obs, rows_per_block):
        stop = min(start + rows_per_block, n_obs)
        size = stop - start
        d2 = np.matmul(y[start:stop], cols, out=block[:size])
        d2 += col_sq
        # The diagonal, (i, start + i), is one stride of the flat block. NaN
        # fails every comparison, even with an infinite bound, and
        # partitions last.
        flat[start:size * n_obs:n_obs + 1] = np.nan
        least = np.minimum.reduce(d2[:, :whole].reshape(size, -1, groups), axis=1,
                                  out=group_min[:size])
        np.minimum(least[:, :tail], d2[:, whole:], out=least[:, :tail])
        least.partition(k - 1, axis=1)
        kth = least[:, k - 1].astype(np.float64)
        sq_rows = sq[start:stop]
        bound = kth + 8.0 * c * (sq_rows + np.maximum(kth + sq_rows, 0.0)) + tau
        bound = np.nextafter(bound.astype(np.float32), up)
        shortlist = np.less_equal(d2, bound[:, None], out=mask[:size])
        keys = np.flatnonzero(shortlist)
        keys += start * n_obs  # row * n_obs + candidate
        pending.append(keys)
        pending_pairs += keys.size
        if pending_pairs >= _BRUTE_BATCH or stop == n_obs:
            rows, cands = np.divmod(np.concatenate(pending), n_obs)
            rows, cands = _nearest_k(pts, rows, cands, k)
            found.append(np.sort(rows * n_obs + cands))
            pending, pending_pairs = [], 0
    return np.divmod(np.concatenate(found), n_obs)


def knn_edges(features: FiberMatrix, observed: ObservationSet, k: int) -> EdgeSet:
    """The directed kNN relations over the observed fibers: one (fiber,
    neighbour) row for each of every observed fiber's k nearest observed
    fibers by Euclidean distance. A mutual pair appears once in each
    orientation; :func:`build_graph` symmetrises the relations by union.

    Nearness is the exact Euclidean distance of the feature difference;
    ties go to the smaller node id. Both search paths (kd-tree up to
    ``KDTREE_MAX_CHANNELS`` channels; above, a float32 shortlist from
    which exact float64 distances select) apply this rule and give the
    same edges. Duplicate feature rows are legal neighbours (distance zero)
    but a node is never its own neighbour.

    The observed features are first scaled by a power of two so that their
    peak magnitude lies in [0.5, 1). The scale is exact, so the edges do
    not change when every feature is multiplied by a power of two, however
    large or small, and squared distances neither overflow nor underflow.
    The limit is the feature set's own dynamic range: squared differences
    below about 1e-300 of the squared peak underflow, and such near
    duplicates tie at distance zero, going to the smaller id.
    """
    if features.n != observed.n:
        raise ValueError(
            f"features describe {features.n} nodes, observation set has {observed.n}"
        )
    return _knn_observed(features.values[observed.observed], observed, k)


def _knn_observed(rows: np.ndarray, observed: ObservationSet, k: int) -> EdgeSet:
    """:func:`knn_edges` given the observed fibers themselves: ``rows`` holds
    one row per id of ``observed.observed``, in that order. ``rows`` is
    read, never written."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    obs = observed.observed
    if obs.size < k + 1:
        raise TooFewObserved(
            f"need at least {k + 1} observed fibers for k={k}, got {obs.size}"
        )
    if not np.all(np.isfinite(rows)):
        raise NonFiniteInput("observed fiber features must be finite")
    # ldexp is exact and writes a new C-ordered array: the scaled copy
    pts = np.ldexp(rows, -peak_exponent(rows), order="C")
    if pts.shape[1] <= KDTREE_MAX_CHANNELS:
        src, dst = _knn_neighbors_tree(pts, k)
    else:
        src, dst = _knn_neighbors_brute(pts, k)
    return EdgeSet(observed.n, np.column_stack([obs[src], obs[dst]]))


def _shared_node_count(sets) -> int:
    """The node count of the edge sets; ``ValueError`` when none is given or
    the counts differ."""
    if not sets:
        raise ValueError("need at least one edge set")
    n = sets[0].n
    for s in sets[1:]:
        if s.n != n:
            raise ValueError(f"mismatched node counts: {s.n} != {n}")
    return n


def union_edges(sets) -> EdgeSet:
    """Union of edge sets sharing the same node count: their rows, set
    after set. An edge in several sets collapses in :func:`build_graph`."""
    sets = list(sets)
    return EdgeSet(_shared_node_count(sets), np.concatenate([s.edges for s in sets]))


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """Symmetric adjacency without self-loops plus its degrees."""

    n: int
    adjacency: sp.csr_array
    degrees: np.ndarray

    @cached_property
    def lam_max(self) -> float:
        """Largest eigenvalue magnitude of the adjacency, i.e. its spectral
        norm, as :func:`bounds.spectral_norm` certifies it (never below the
        true value); computed on first use and kept."""
        from .bounds import spectral_norm  # bounds imports this module

        return spectral_norm(self.adjacency)

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label of every node, as
        ``scipy.sparse.csgraph.connected_components`` numbers them;
        computed on first use and kept."""
        _, labels = connected_components(self.adjacency, directed=False)
        labels.setflags(write=False)
        return labels


def build_graph(*edge_sets: EdgeSet) -> SparseGraph:
    """Assemble the unweighted adjacency of the union of one or more edge
    sets over the same nodes from one key sort: both orientations of every
    row of every set become the key ``u * n + v`` (int32 while ``n`` is at
    most ``_INT32_KEY_NODES``, int64 above), one sort orders the keys by
    row and then column, and dropping each key equal to its predecessor
    collapses reversed and repeated rows into one edge. The sorted unique
    keys are the CSR arrays as they stand, with no further pass over the
    rows: ``indptr`` where each row's keys start, ``indices`` the keys
    modulo ``n``, every value float64 1.0 and the degrees (float64) the
    row lengths. Index arrays are int32 whenever the node ids and pair
    count fit (half the index memory of int64).

    Given several sets it equals ``build_graph(union_edges(edge_sets))``
    bit for bit. Raises ``ValueError`` when no set is given or the node
    counts differ.
    """
    n = _shared_node_count(edge_sets)
    key = np.int32 if n <= _INT32_KEY_NODES else np.int64
    heads = [e.edges[:, 0] for e in edge_sets]
    tails = [e.edges[:, 1] for e in edge_sets]
    keys = np.concatenate(heads + tails, dtype=key)
    keys *= n
    keys += np.concatenate(tails + heads, dtype=key)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    index = np.int32 if max(n, keys.size) < 2**31 else np.int64
    keys = keys[first]
    del first
    # Row r's keys are those in [r * n, (r + 1) * n).
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=key) * n).astype(index)
    cols = np.remainder(keys, n, out=keys).astype(index, copy=False)
    adjacency = sp.csr_array((np.ones(cols.size), cols, indptr), shape=(n, n))
    adjacency.has_canonical_format = True  # sorted, no repeats: as built
    return SparseGraph(n, adjacency, np.diff(indptr).astype(np.float64))


@dataclass(frozen=True, eq=False)
class GraphBlocks:
    """Adjacency blocks of an (observed, unknown) split: ``a_co`` has the
    unknown rows and observed columns, ``a_cc`` the unknown rows and
    columns, ``d_cc`` the unknown nodes' degrees in the whole graph."""

    a_co: sp.csr_array
    a_cc: sp.csr_array
    d_cc: np.ndarray


def partition_blocks(g: SparseGraph, observed: np.ndarray, unknown: np.ndarray) -> GraphBlocks:
    """Slice the adjacency by two disjoint id arrays, rows and columns in
    the order given.

    The grounded Laplacian system over ``unknown`` is
    ``(diag(d_cc) - a_cc) F_c = a_co F_o``; the remaining blocks follow by
    symmetry (``A_oc = a_co.T``).
    """
    rows = g.adjacency[unknown]
    return GraphBlocks(rows[:, observed].tocsr(), rows[:, unknown].tocsr(), g.degrees[unknown])


def split_reachable(g: SparseGraph, omega: ObservationSet) -> tuple[np.ndarray, np.ndarray]:
    """Split the missing ids into those whose connected component holds an
    observed node and the rest: zero-degree nodes and the nodes of
    components with edges but no observed node."""
    labels = g.component_labels
    observed_labels = np.zeros(labels.max() + 1, dtype=bool)
    observed_labels[labels[omega.observed]] = True
    reachable = observed_labels[labels[omega.missing]]
    return omega.missing[reachable], omega.missing[~reachable]


_EDGE_HEADER = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def save_edge_list(e: EdgeSet, path) -> None:
    """Text edge list: header '# n=<N>', then one '<u> <v>' line per edge,
    1-based ids: the upper triangle of ``build_graph(e)``'s adjacency, u < v
    in lexicographic order, each edge once."""
    upper = sp.triu(build_graph(e).adjacency, k=1, format="coo")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={e.n}\n")
        for u, v in zip(upper.row, upper.col):
            fh.write(f"{u + 1} {v + 1}\n")


def load_edge_list(path) -> EdgeSet:
    """Parse the text edge-list format written by :func:`save_edge_list`.

    Duplicate and reversed lines are kept and collapse into one edge in
    :func:`build_graph`; self-loop lines are skipped (external datasets
    sometimes carry them, the graphs here never do).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    it = iter(enumerate(lines, start=1))
    n = None
    for lineno, line in it:
        if not line.strip():
            continue
        m = _EDGE_HEADER.match(line.strip())
        if not m:
            raise DataError(f"{path}:{lineno}: expected header '# n=<N>'")
        n = int(m.group(1))
        break
    if n is None:
        raise DataError(f"{path}: empty file")
    pairs = []
    for lineno, line in it:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected '<u> <v>', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-integer ids") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise DataError(f"{path}:{lineno}: ids must lie in 1..{n}")
        if u == v:
            continue
        pairs.append((u - 1, v - 1))
    try:
        return EdgeSet(n, pairs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
