"""The refine stage of the filter-refine join pipeline.

A :class:`RefinePipeline` consumes candidate ``(oid_a, oid_b)`` pairs
from *any* registry algorithm (the filter stage — unchanged MBR
machinery) and keeps exactly the pairs whose exact Euclidean shape
distance is within epsilon.  Per candidate pair, in order:

1. **False-hit prune** — ``gap(mbr_a, mbr_b)^2 > eps^2`` proves the
   shapes apart (the MBR gap lower-bounds the shape distance).  Counted
   in ``false_hit_prunes``.  This fires because the candidate filter
   uses L-inf box inflation while the exact predicate is Euclidean: a
   diagonal neighbour intersects the inflated box yet sits further than
   epsilon.
2. **True-hit shortcut** (Kipf et al.) — both shapes expose an interior
   rectangle (a box *subset* of the shape) and
   ``gap(int_a, int_b)^2 <= eps^2`` proves the pair within epsilon
   without an exact test.  Counted in ``true_hits``.
3. **Exact test** — the segment-cross minimum distance plus containment
   checks for filled shapes.  Counted in ``exact_tests``.

The accounting identity ``true_hits + exact_tests == candidate_pairs -
false_hit_prunes`` holds by construction and is pinned by the parity
suite.  Surviving pairs are counted in ``refined_pairs`` and returned
in candidate order, so every backend (object / columnar / compiled)
produces the identical list.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geometry.columnar import resolve_backend
from repro.geometry.shapes import box_gap_sq, shape_distance_sq
from repro.geometry.vertex_table import shape_of
from repro.stats.counters import JoinStatistics

__all__ = ["RefinePipeline", "MissingShapesError"]


class MissingShapesError(ValueError):
    """``geometry="exact"`` was requested for a dataset without shapes."""

    def __init__(self, dataset: str):
        self.dataset = dataset
        super().__init__(
            f"dataset {dataset!r} carries no shape payloads; "
            "geometry='exact' needs vertex data (use a polygon/linestring "
            "workload such as 'polygons', or attach shapes to the dataset)"
        )


class _Side:
    """Per-side refinement view: shapes plus oid-keyed lookup arrays."""

    __slots__ = (
        "shapes",
        "index",
        "mbr_lo",
        "mbr_hi",
        "int_lo",
        "int_hi",
        "_segs",
    )

    def __init__(self, objects: Sequence, columnar: bool):
        self.shapes = [shape_of(obj) for obj in objects]
        self.index = {obj.oid: i for i, obj in enumerate(objects)}
        self._segs: dict[int, object] = {}
        if columnar and self.shapes:
            dim = self.shapes[0].dim
            n = len(self.shapes)
            self.mbr_lo = np.empty((n, dim), dtype=np.float64)
            self.mbr_hi = np.empty((n, dim), dtype=np.float64)
            self.int_lo = np.full((n, dim), np.nan, dtype=np.float64)
            self.int_hi = np.full((n, dim), np.nan, dtype=np.float64)
            for i, shape in enumerate(self.shapes):
                box = shape.mbr()
                self.mbr_lo[i] = box.lo
                self.mbr_hi[i] = box.hi
                interior = shape.interior_rectangle()
                if interior is not None:
                    self.int_lo[i] = interior.lo
                    self.int_hi[i] = interior.hi
        else:
            self.mbr_lo = self.mbr_hi = self.int_lo = self.int_hi = None

    def segments(self, i: int):
        segs = self._segs.get(i)
        if segs is None:
            from repro.refine.kernels import segments_array

            segs = segments_array(self.shapes[i])
            self._segs[i] = segs
        return segs


class RefinePipeline:
    """Exact refinement of candidate pairs at a fixed epsilon.

    Parameters
    ----------
    epsilon:
        The join distance; the exact predicate is
        ``shape_distance <= epsilon`` (Euclidean).  ``0`` degenerates to
        an exact intersection test.
    backend:
        ``"auto"`` / ``"object"`` / ``"columnar"`` / ``"compiled"`` with
        the same resolution rules as the filter kernels.  Every backend
        returns the identical refined list.
    """

    def __init__(self, epsilon: float, backend: str = "auto"):
        epsilon = float(epsilon)
        if not math.isfinite(epsilon) or epsilon < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
        self.epsilon = epsilon
        self.backend = resolve_backend(backend)

    def refine(
        self,
        pairs: Sequence[tuple[int, int]],
        objects_a: Sequence,
        objects_b: Sequence,
        stats: JoinStatistics | None = None,
    ) -> list[tuple[int, int]]:
        """Filter candidate pairs down to exact matches, in candidate order.

        ``objects_a`` / ``objects_b`` must expose **original** (never
        epsilon-inflated) extents: either objects carrying
        :class:`~repro.geometry.shapes.Shape` geometry, or plain MBR
        objects which refine as solid boxes over ``obj.mbr``.
        """
        if stats is None:
            stats = JoinStatistics()
        stats.candidate_pairs += len(pairs)
        if not pairs:
            return []
        columnar = self.backend in ("columnar", "compiled")
        side_a = _Side(objects_a, columnar)
        side_b = _Side(objects_b, columnar)
        if columnar:
            kept = self._refine_columnar(pairs, side_a, side_b, stats)
        else:
            kept = self._refine_object(pairs, side_a, side_b, stats)
        stats.refined_pairs += len(kept)
        return kept

    # -- object backend -------------------------------------------------
    def _refine_object(self, pairs, side_a, side_b, stats):
        eps_sq = self.epsilon * self.epsilon
        kept = []
        for pair in pairs:
            i = side_a.index[pair[0]]
            j = side_b.index[pair[1]]
            sa = side_a.shapes[i]
            sb = side_b.shapes[j]
            box_a = sa.mbr()
            box_b = sb.mbr()
            if box_gap_sq(box_a.lo, box_a.hi, box_b.lo, box_b.hi) > eps_sq:
                stats.false_hit_prunes += 1
                continue
            int_a = sa.interior_rectangle()
            int_b = sb.interior_rectangle()
            if (
                int_a is not None
                and int_b is not None
                and box_gap_sq(int_a.lo, int_a.hi, int_b.lo, int_b.hi) <= eps_sq
            ):
                stats.true_hits += 1
                kept.append(pair)
                continue
            stats.exact_tests += 1
            if shape_distance_sq(sa, sb) <= eps_sq:
                kept.append(pair)
        return kept

    # -- columnar / compiled backend ------------------------------------
    def _refine_columnar(self, pairs, side_a, side_b, stats):
        from repro.refine.kernels import box_gap_sq_batch

        eps_sq = self.epsilon * self.epsilon
        rows_a = np.fromiter(
            (side_a.index[p[0]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        rows_b = np.fromiter(
            (side_b.index[p[1]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        mbr_gap = box_gap_sq_batch(
            side_a.mbr_lo[rows_a],
            side_a.mbr_hi[rows_a],
            side_b.mbr_lo[rows_b],
            side_b.mbr_hi[rows_b],
        )
        alive = mbr_gap <= eps_sq
        stats.false_hit_prunes += int(len(pairs) - int(alive.sum()))
        int_gap = box_gap_sq_batch(
            side_a.int_lo[rows_a],
            side_a.int_hi[rows_a],
            side_b.int_lo[rows_b],
            side_b.int_hi[rows_b],
        )
        true_hit = alive & (int_gap <= eps_sq)
        stats.true_hits += int(true_hit.sum())
        kept = []
        if self.backend == "compiled":
            from repro.refine.compiled import min_cross_sq_compiled as cross
        else:
            from repro.refine.kernels import min_cross_sq as cross
        for k in np.flatnonzero(alive):
            pair = pairs[k]
            if true_hit[k]:
                kept.append(pair)
                continue
            stats.exact_tests += 1
            i = int(rows_a[k])
            j = int(rows_b[k])
            if self._exact_sq(side_a, i, side_b, j, cross) <= eps_sq:
                kept.append(pair)
        return kept

    @staticmethod
    def _exact_sq(side_a, i, side_b, j, cross) -> float:
        sa = side_a.shapes[i]
        sb = side_b.shapes[j]
        boxlike = ("box", "point")
        if sa.kind in boxlike and sb.kind in boxlike:
            return shape_distance_sq(sa, sb)
        if sa.dim != 2:
            raise ValueError(
                f"exact {sa.kind}/{sb.kind} distance requires 2-D shapes, "
                f"got {sa.dim}-D"
            )
        best = cross(side_a.segments(i), side_b.segments(j))
        if best > 0.0:
            from repro.geometry.shapes import _filled_contains

            if sa.filled and _filled_contains(sa, sb.vertices[0]):
                return 0.0
            if sb.filled and _filled_contains(sb, sa.vertices[0]):
                return 0.0
        return best
