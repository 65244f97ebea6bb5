"""Reference answers the benchmark checks the program against.

- :func:`box_join_pairs`: the ε-distance box join, computed directly
  with numpy (A inflated by ε exactly as ``MBR.expand`` does, closed-box
  intersection), independent of every join algorithm in the program.
- :func:`shapes_intersect`: exact intersection of two 2-D shapes by
  orientation signs of 2×2 determinants with collinear-overlap handling,
  plus point-in-polygon for containment.  It decides crossing segments
  without any distance arithmetic.
- :func:`pair_mismatch`: compares an output with its reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["box_join_pairs", "shapes_intersect", "pair_mismatch"]

#: A rows per step of :func:`box_join_pairs`.
CHUNK = 256


def box_join_pairs(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    epsilon: float,
) -> set[tuple[int, int]]:
    """All ``(a_row, b_row)`` whose ε-inflated A box meets the B box.

    Rows double as oids.  A is swept in x order and each chunk meets
    only the B boxes whose x-extent can reach it.
    """
    a_lo = a_lo - epsilon
    a_hi = a_hi + epsilon
    order_a = np.argsort(a_lo[:, 0], kind="stable")
    order_b = np.argsort(b_lo[:, 0], kind="stable")
    b_lo_x = b_lo[order_b, 0]
    widest_b = float((b_hi[:, 0] - b_lo[:, 0]).max()) if len(b_lo) else 0.0
    pairs: set[tuple[int, int]] = set()
    for start in range(0, len(order_a), CHUNK):
        rows_a = order_a[start : start + CHUNK]
        lo_a, hi_a = a_lo[rows_a], a_hi[rows_a]
        first = np.searchsorted(b_lo_x, lo_a[:, 0].min() - widest_b, side="left")
        last = np.searchsorted(b_lo_x, hi_a[:, 0].max(), side="right")
        rows_b = order_b[first:last]
        if not len(rows_b):
            continue
        lo_b, hi_b = b_lo[rows_b], b_hi[rows_b]
        hit = np.all(
            (lo_a[:, None, :] <= hi_b[None, :, :]) & (lo_b[None, :, :] <= hi_a[:, None, :]),
            axis=2,
        )
        ia, ib = np.nonzero(hit)
        pairs.update(zip(rows_a[ia].tolist(), rows_b[ib].tolist()))
    return pairs


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1, p2, p3, p4) -> bool:
    """Closed segments p1p2 and p3p4 share a point (orientation test)."""
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _on_segment(*p3, *p4, *p1))
        or (d2 == 0 and _on_segment(*p3, *p4, *p2))
        or (d3 == 0 and _on_segment(*p1, *p2, *p3))
        or (d4 == 0 and _on_segment(*p1, *p2, *p4))
    )


def _edges(vertices, closed: bool):
    pts = [tuple(v) for v in vertices]
    ends = pts[1:] + pts[:1] if closed else pts[1:]
    return list(zip(pts, ends))


def _inside(ring, point) -> bool:
    """Even-odd point-in-polygon; boundary points are caught by the edge test."""
    x, y = point
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def shapes_intersect(kind_a: str, verts_a, kind_b: str, verts_b) -> bool:
    """Exact intersection of two 2-D polygons/linestrings (filled polygons)."""
    edges_a = _edges(verts_a, kind_a == "polygon")
    edges_b = _edges(verts_b, kind_b == "polygon")
    for p1, p2 in edges_a:
        for p3, p4 in edges_b:
            if segments_intersect(p1, p2, p3, p4):
                return True
    if kind_a == "polygon" and _inside(verts_a, verts_b[0]):
        return True
    return kind_b == "polygon" and _inside(verts_b, verts_a[0])


def pair_mismatch(got, expected) -> str | None:
    """``None`` when the pair sets agree, else a one-line description."""
    got = set(got)
    if got == expected:
        return None
    missing = expected - got
    extra = got - expected
    sample = sorted(missing)[:3] or sorted(extra)[:3]
    return f"{len(missing)} missing, {len(extra)} extra (e.g. {sample})"
