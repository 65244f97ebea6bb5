"""Vectorised uniform grid over coordinate tables.

The columnar twin of :class:`repro.grid.uniform.UniformGrid`: the same
geometry (same resolution rules, the same clamped cell indexing, the
same reference-point deduplication rule) but computed for whole tables
at once.  Instead of a hash map of cells it works with flat *entry*
arrays — ``(object_index, cell_key)`` pairs, one per (object, overlapped
cell) — produced without any per-object Python loop, and joins two entry
sets by sorting one side by key and binary-searching the other against
it.

Candidate semantics match the object-model grid joins exactly: a pair is
tested once per cell both objects share, so ``stats.comparisons`` of a
columnar grid join equals the object path's count bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.columnar import (
    CoordinateTable,
    DEFAULT_CANDIDATE_CHUNK,
    chunk_boundaries,
    concat_ranges,
)

__all__ = [
    "ColumnarGrid",
    "entry_join_candidates",
    "cell_join_candidates",
    "grid_join_pairs",
    "sort_entries",
    "probe_join_candidates",
    "populated_cells",
    "grid_probe_pairs",
]


class ColumnarGrid:
    """Cell geometry of a uniform grid, computed in bulk.

    Parameters mirror :class:`~repro.grid.uniform.UniformGrid`: exactly
    one of ``resolution`` (cells per dimension) and ``cell_size`` (target
    cell edge length) must be given; degenerate universe extents collapse
    to one cell in that dimension.  ``lo`` / ``hi`` are the universe
    corners as length-``D`` vectors.
    """

    __slots__ = ("lo", "hi", "resolution", "cell_width", "_radix")

    def __init__(self, lo, hi, resolution=None, cell_size=None) -> None:
        if (resolution is None) == (cell_size is None):
            raise ValueError("specify exactly one of resolution or cell_size")
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        dim = self.lo.shape[0]
        extents = self.hi - self.lo

        if resolution is not None:
            res = np.broadcast_to(
                np.asarray(resolution, dtype=np.int64), (dim,)
            ).copy()
            if (res < 1).any():
                raise ValueError(f"resolution must be >= 1 per dimension, got {res}")
        else:
            size = np.broadcast_to(
                np.asarray(cell_size, dtype=np.float64), (dim,)
            ).copy()
            if (size <= 0).any():
                raise ValueError(f"cell_size must be positive, got {size}")
            res = np.maximum(1, np.ceil(extents / size)).astype(np.int64)
        self.resolution = res
        self.cell_width = np.where(extents > 0, extents / res, 0.0)
        # Mixed-radix factors: key = ((i0 * R1) + i1) * R2 + i2 ...
        radix = np.ones(dim, dtype=np.int64)
        for d in range(dim - 2, -1, -1):
            radix[d] = radix[d + 1] * res[d + 1]
        self._radix = radix

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def total_cells(self) -> int:
        """Nominal cell count (most are empty on realistic data)."""
        return int(self.resolution.prod())

    # -- coordinate mathematics ---------------------------------------
    def cell_indices(self, points):
        """Clamped per-dimension cell indices of ``(M, D)`` points.

        Points outside the universe clamp to the nearest edge cell, the
        same ownership semantics as the object-model
        :meth:`~repro.grid.uniform.UniformGrid.cell_of_point`.  The
        clamp happens in float space *before* the integer cast: casting
        first overflowed int64 for coordinates far beyond a fixed
        universe (``np.float64 -> int64`` wraps to ``INT64_MIN``), which
        silently dropped such points into cell 0 instead of the last
        cell and diverged from the object path.
        """
        width = self.cell_width
        safe = np.where(width > 0, width, 1.0)
        raw = np.floor((points - self.lo) / safe)
        raw[:, width <= 0] = 0.0
        last = (self.resolution - 1).astype(np.float64)
        return np.clip(raw, 0.0, last).astype(np.int64)

    def keys_of(self, indices):
        """Mixed-radix scalar key of ``(M, D)`` per-dimension indices."""
        return indices @ self._radix

    def index_ranges(self, table: CoordinateTable):
        """Inclusive ``(lo_idx, hi_idx)`` cell ranges per table row."""
        return self.cell_indices(table.lo), self.cell_indices(table.hi)

    # -- bulk multiple assignment --------------------------------------
    def entries(self, table: CoordinateTable, with_class_masks: bool = False):
        """Flat ``(object_index, cell_key)`` arrays, one entry per cell a
        box overlaps (PBSM's multiple assignment, vectorised).

        The per-object cell blocks are enumerated with the repeat/cumsum
        trick: every object contributes ``prod(hi - lo + 1)`` entries and
        the within-block flat position is unravelled into per-dimension
        offsets by repeated ``divmod`` — no Python loop over objects.

        With ``with_class_masks=True`` a third array is returned: the
        two-layer class mask of each entry, bit ``d`` set iff the cell is
        the one containing the box's low corner along dimension ``d``
        (i.e. the per-dimension offset is zero).  Mask ``2**dim - 1`` is
        the home cell (class A); cleared bits mark replicas entering
        from a lower neighbour (classes B/C/D in 2-D).
        """
        lo_idx, hi_idx = self.index_ranges(table)
        return self.range_entries(lo_idx, hi_idx, with_class_masks)

    def range_entries(self, lo_idx, hi_idx, with_class_masks: bool = False):
        """:meth:`entries` of given inclusive per-row cell-index ranges.

        Row ``i`` covers the cells ``lo_idx[i] .. hi_idx[i]``; an empty
        range (``hi < lo`` in some dimension) contributes no entry, so a
        caller may clip the ranges of :meth:`index_ranges` to a window
        first.  Class masks are taken relative to ``lo_idx``.
        """
        spans = np.maximum(hi_idx - lo_idx + 1, 0)
        per_object = spans.prod(axis=1)
        obj_idx, flat_pos = concat_ranges(
            np.zeros(len(spans), dtype=np.int64), per_object
        )
        if len(obj_idx) == 0:
            if with_class_masks:
                return obj_idx, flat_pos, flat_pos.copy()
            return obj_idx, flat_pos
        # Unravel each within-block position into per-dimension offsets,
        # last dimension first (row-major), with per-object values
        # repeated out to the entries rather than gathered per entry.
        keys = np.repeat(lo_idx @ self._radix, per_object)
        masks = np.zeros(len(obj_idx), dtype=np.int64) if with_class_masks else None
        rest = flat_pos
        for d in range(self.dim - 1, -1, -1):
            if d:
                rest, offset = np.divmod(rest, np.repeat(spans[:, d], per_object))
            else:
                offset = rest
            keys += offset * self._radix[d]
            if masks is not None:
                masks += (offset == 0).astype(np.int64) << d
        if masks is not None:
            return obj_idx, keys, masks
        return obj_idx, keys

    # -- reference-point deduplication ---------------------------------
    def owned_mask(self, candidate_keys, a_lo_rows, b_lo_rows):
        """Which candidates are owned by the cell they were found in.

        The owning cell contains the minimum corner of the intersection
        of the two boxes (Dittrich & Seeger), i.e. the componentwise
        maximum of the two minimum corners — same rule as
        :meth:`repro.grid.uniform.UniformGrid.owns_pair`.
        """
        reference = np.maximum(a_lo_rows, b_lo_rows)
        return self.keys_of(self.cell_indices(reference)) == candidate_keys


def entry_join_candidates(
    keys_a,
    keys_b,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Co-located *entry index* pairs of two flat key arrays, chunked.

    Sorts B's entries by cell key and binary-searches every A entry's
    key window against them; yields ``(entries_a, entries_b)`` index
    arrays into the original entry arrays, one element per (A entry,
    B entry) pair sharing a cell.  Callers look up whatever per-entry
    payload they carry through these indices:
    :func:`cell_join_candidates` the object indices, the two-layer join
    (:mod:`repro.partition.two_layer`) object indices *and* class masks.
    """
    if len(keys_a) == 0 or len(keys_b) == 0:
        return
    order_b = np.argsort(keys_b, kind="stable")
    keys_b_sorted = keys_b[order_b]
    # B's sorted keys in runs of one cell each; every A entry finds its
    # cell's run with one binary search over the distinct keys.
    run_start = np.flatnonzero(
        np.concatenate(([True], keys_b_sorted[1:] != keys_b_sorted[:-1]))
    )
    distinct = keys_b_sorted[run_start]
    run_length = np.diff(run_start, append=len(keys_b_sorted))
    run = np.minimum(np.searchsorted(distinct, keys_a), len(distinct) - 1)
    starts = run_start[run]
    counts = np.where(distinct[run] == keys_a, run_length[run], 0)
    if int(counts.sum()) == 0:
        return
    for lo_i, hi_i in chunk_boundaries(counts, chunk):
        entry_idx, window_pos = concat_ranges(starts[lo_i:hi_i], counts[lo_i:hi_i])
        if len(entry_idx) == 0:
            continue
        entry_idx += lo_i
        yield entry_idx, order_b[window_pos]


def sort_entries(keys):
    """Key-sort one entry set once, for repeated probing.

    Returns ``(order, sorted_keys)`` — the stable argsort of ``keys``
    and the keys in that order.  Build-once/probe-many joins sort the
    *build* side's entries at prepare time so that each probe batch only
    pays a binary search of its own (typically much smaller) entry set,
    instead of the one-shot path's per-join sort-and-scan over the full
    build side (:func:`probe_join_candidates`).
    """
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def populated_cells(build_sorted_keys, build_populated: int, probe_keys) -> int:
    """Distinct keys of a presorted build side and a probe batch together.

    Equals ``len(np.union1d(build_keys, probe_keys))``, but only the
    probe's distinct keys are sorted: ``build_populated`` is the build
    side's distinct-key count, taken once at prepare time, and each
    probe key is looked up in the build keys by binary search.
    """
    fresh = np.unique(probe_keys)
    at = np.searchsorted(build_sorted_keys, fresh)
    found = at < len(build_sorted_keys)
    found[found] = build_sorted_keys[at[found]] == fresh[found]
    return build_populated + int(len(fresh) - found.sum())


def probe_join_candidates(
    build_order,
    build_sorted_keys,
    probe_keys,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Co-located entry pairs of a presorted build side and a probe batch.

    The probe twin of :func:`entry_join_candidates`: the build side was
    key-sorted once by :func:`sort_entries`; every probe entry's key
    window is binary-searched against it.  Yields ``(entries_build,
    entries_probe)`` index arrays into the original entry arrays — the
    same candidate multiset as ``entry_join_candidates(build, probe)``
    (one element per key-sharing pair), so ``stats.comparisons`` counts
    are identical; only the pair order differs.
    """
    if len(build_sorted_keys) == 0 or len(probe_keys) == 0:
        return
    starts = np.searchsorted(build_sorted_keys, probe_keys, side="left")
    ends = np.searchsorted(build_sorted_keys, probe_keys, side="right")
    counts = ends - starts
    if int(counts.sum()) == 0:
        return
    for lo_i, hi_i in chunk_boundaries(counts, chunk):
        probe_idx, window_pos = concat_ranges(starts[lo_i:hi_i], counts[lo_i:hi_i])
        if len(probe_idx) == 0:
            continue
        probe_idx += lo_i
        yield build_order[window_pos], probe_idx


def grid_probe_pairs(
    grid: ColumnarGrid,
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    prepared_a,
    entries_b,
    stats,
):
    """Probe-side twin of :func:`grid_join_pairs` over a prepared A side.

    ``prepared_a`` is ``(obj_a, keys_a, order_a, sorted_keys_a)`` with
    the sort computed once at prepare time; ``entries_b`` are the probe
    batch's ``(obj_b, keys_b)`` entries.  Candidate generation, the
    intersection test and the reference-point ownership rule are the
    same as the one-shot join, so the returned ``(index_a, index_b)``
    pair set matches it exactly.
    """
    obj_a, keys_a, order_a, sorted_keys_a = prepared_a
    obj_b, keys_b = entries_b
    comparisons = 0
    duplicates = 0
    dedup_checks = 0
    out_a: list = []
    out_b: list = []
    a_lo, a_hi = table_a.lo, table_a.hi
    b_lo, b_hi = table_b.lo, table_b.hi
    for ent_a, ent_b in probe_join_candidates(order_a, sorted_keys_a, keys_b):
        cand_a, cand_b = obj_a[ent_a], obj_b[ent_b]
        cand_keys = keys_a[ent_a]
        comparisons += len(cand_a)
        hit = ((a_lo[cand_a] <= b_hi[cand_b]) & (b_lo[cand_b] <= a_hi[cand_a])).all(
            axis=1
        )
        hit_a, hit_b, hit_keys = cand_a[hit], cand_b[hit], cand_keys[hit]
        owned = grid.owned_mask(hit_keys, a_lo[hit_a], b_lo[hit_b])
        dedup_checks += len(hit_a)
        duplicates += len(hit_a) - int(owned.sum())
        out_a.append(hit_a[owned])
        out_b.append(hit_b[owned])
    stats.comparisons += comparisons
    stats.duplicates_suppressed += duplicates
    stats.dedup_checks += dedup_checks
    empty = np.empty(0, dtype=np.int64)
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def cell_join_candidates(
    keys_a,
    obj_a,
    keys_b,
    obj_b,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Generate candidate pairs of entries sharing a cell, in chunks.

    ``keys_*`` / ``obj_*`` are flat entry arrays from
    :meth:`ColumnarGrid.entries`.  Yields ``(a_objects, b_objects, keys)``
    blocks where each element is one (A entry, B entry) pair co-located
    in the cell ``key`` — exactly the candidate multiset the object-model
    grid joins test, in bounded-memory chunks.
    """
    for ent_a, ent_b in entry_join_candidates(keys_a, keys_b, chunk):
        yield obj_a[ent_a], obj_b[ent_b], keys_a[ent_a]


def grid_join_pairs(
    grid: ColumnarGrid,
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    entries_a,
    entries_b,
    stats,
):
    """Join two entry sets: intersection test + reference-point dedup.

    The shared core of every columnar grid join (TOUCH's local join and
    PBSM's cell merge): generates the co-located candidate pairs, keeps
    the truly intersecting ones, and lets each cell report only the
    pairs it owns.  Increments ``stats.comparisons`` once per candidate
    and ``stats.duplicates_suppressed`` per disowned intersection;
    returns the owned ``(index_a, index_b)`` pair arrays.
    """
    obj_a, keys_a = entries_a
    obj_b, keys_b = entries_b
    comparisons = 0
    duplicates = 0
    dedup_checks = 0
    out_a: list = []
    out_b: list = []
    a_lo, a_hi = table_a.lo, table_a.hi
    b_lo, b_hi = table_b.lo, table_b.hi
    for cand_a, cand_b, cand_keys in cell_join_candidates(
        keys_a, obj_a, keys_b, obj_b
    ):
        comparisons += len(cand_a)
        hit = ((a_lo[cand_a] <= b_hi[cand_b]) & (b_lo[cand_b] <= a_hi[cand_a])).all(
            axis=1
        )
        hit_a, hit_b, hit_keys = cand_a[hit], cand_b[hit], cand_keys[hit]
        owned = grid.owned_mask(hit_keys, a_lo[hit_a], b_lo[hit_b])
        dedup_checks += len(hit_a)
        duplicates += len(hit_a) - int(owned.sum())
        out_a.append(hit_a[owned])
        out_b.append(hit_b[owned])
    stats.comparisons += comparisons
    stats.duplicates_suppressed += duplicates
    stats.dedup_checks += dedup_checks
    empty = np.empty(0, dtype=np.int64)
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)
