"""Exact-geometry refinement kernels (scalar + numpy-vectorized twins).

The refinement predicate is Euclidean: ``shape_distance(a, b) <=
epsilon``, evaluated on *squared* distances throughout.  Three kernel
families, each with a scalar canonical form and a vectorized numpy twin
that mirrors the scalar arithmetic **operation for operation**, so the
object, columnar and compiled refinement backends reach bit-identical
decisions (the same discipline the MBR kernels follow):

- :func:`repro.geometry.shapes.box_gap_sq` /
  :func:`box_gap_sq_batch` — squared Euclidean gap between closed
  boxes; powers both the MBR **false-hit** prune and the
  interior-rectangle **true-hit** shortcut;
- :func:`repro.geometry.shapes.segment_distance_sq` /
  :func:`min_cross_sq` — Ericson's clamped closest-point between
  segments, minimised over the full segment cross product of a pair;
- :func:`repro.geometry.shapes.polygon_contains` — boundary-inclusive
  point-in-polygon ray casting (scalar in every backend: it runs at
  most twice per indeterminate pair).
"""

from __future__ import annotations

import numpy as np

__all__ = ["box_gap_sq_batch", "min_cross_sq", "segments_array"]


def box_gap_sq_batch(lo_a, hi_a, lo_b, hi_b):
    """Squared box gaps for ``(P, d)`` corner arrays, one value per row.

    NaN rows (missing interior rectangles) propagate to NaN gaps, which
    compare ``False`` against any epsilon — exactly "no shortcut".
    """
    gap = np.maximum(lo_a - hi_b, lo_b - hi_a)
    gap = np.maximum(gap, 0.0)
    return (gap * gap).sum(axis=1)


def segments_array(shape):
    """A shape's boundary as an ``(n, 4)`` float64 segment array."""
    return np.asarray(shape.segments(), dtype=np.float64).reshape(-1, 4)


def min_cross_sq(segs_a, segs_b) -> float:
    """Minimum squared distance over the segment cross product.

    The numpy twin of looping :func:`~repro.geometry.shapes.segment_distance_sq`
    over all ``n * m`` segment pairs; every intermediate is computed
    with the same operations in the same order, so the minimum is the
    same float the scalar loop finds.
    """
    A = segs_a[:, None, :]
    B = segs_b[None, :, :]
    ax, ay, bx, by = A[..., 0], A[..., 1], A[..., 2], A[..., 3]
    cx, cy, dx, dy = B[..., 0], B[..., 1], B[..., 2], B[..., 3]
    d1x = bx - ax
    d1y = by - ay
    d2x = dx - cx
    d2y = dy - cy
    rx = ax - cx
    ry = ay - cy
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry
    c = d1x * rx + d1y * ry
    b = d1x * d2x + d1y * d2y

    safe_a = np.where(a > 0.0, a, 1.0)
    safe_e = np.where(e > 0.0, e, 1.0)
    denom = a * e - b * b
    safe_denom = np.where(denom != 0.0, denom, 1.0)

    s_gen = np.clip((b * f - c * e) / safe_denom, 0.0, 1.0)
    s_gen = np.where(denom != 0.0, s_gen, 0.0)
    t_num = b * s_gen + f
    s_low = np.clip(-c / safe_a, 0.0, 1.0)
    s_high = np.clip((b - c) / safe_a, 0.0, 1.0)
    t_gen = np.where(
        t_num < 0.0,
        0.0,
        np.where(t_num > e, 1.0, t_num / safe_e),
    )
    s_sel = np.where(t_num < 0.0, s_low, np.where(t_num > e, s_high, s_gen))

    t_a0 = np.clip(f / safe_e, 0.0, 1.0)
    s = np.where(a <= 0.0, 0.0, np.where(e <= 0.0, s_low, s_sel))
    t = np.where(
        a <= 0.0,
        np.where(e <= 0.0, 0.0, t_a0),
        np.where(e <= 0.0, 0.0, t_gen),
    )

    gx = (ax + d1x * s) - (cx + d2x * t)
    gy = (ay + d1y * s) - (cy + d2y * t)
    dist = gx * gx + gy * gy
    if dist.size == 0:
        return float("inf")
    return float(dist.min())
