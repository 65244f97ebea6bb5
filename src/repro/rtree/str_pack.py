"""Sort-Tile-Recursive (STR) packing (Leutenegger, Lopez & Edgington).

STR is the bulk-loading strategy the paper uses both for its R-Tree
baselines and for TOUCH's bucket construction: it "typically produces leaf
nodes with the smallest MBRs ... and thus allows for more effective
filtering" (§5.1).

Given ``n`` items and a target partition capacity ``c``, STR computes the
number of partitions ``P = ceil(n / c)``, sorts the items by the first
coordinate of their MBR centers, slices them into ``S = ceil(P^(1/D))``
vertical slabs, and recursively tiles each slab using the remaining
``D - 1`` dimensions.  The leaves of the recursion are runs of at most
``c`` spatially adjacent items.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["str_partition", "str_tile", "slices_of"]

T = TypeVar("T")


def slices_of(items: Sequence[T], size: int) -> list[list[T]]:
    """Chop ``items`` into consecutive runs of at most ``size`` elements."""
    if size < 1:
        raise ValueError(f"slice size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def str_partition(
    items: Sequence[T],
    capacity: int,
    center_of: Callable[[T], Sequence[float]],
    dim: int,
) -> list[list[T]]:
    """Partition ``items`` into spatially coherent groups of ≤ ``capacity``.

    Parameters
    ----------
    items:
        The objects (or index nodes) to pack.
    capacity:
        Maximum group size; the paper's "partitions of size fo".
    center_of:
        Accessor returning the MBR center used for sorting.
    dim:
        Dimensionality of the centers.

    Returns
    -------
    list[list[T]]
        Groups in tile order.  Every input item appears in exactly one
        group, and every group except possibly trailing ones is full.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not items:
        return []
    return _tile(list(items), capacity, center_of, axis=0, dims_left=dim)


def _tile(
    items: list[T],
    capacity: int,
    center_of: Callable[[T], Sequence[float]],
    axis: int,
    dims_left: int,
) -> list[list[T]]:
    """Recursive tiling step of STR along ``axis``."""
    n = len(items)
    if n <= capacity:
        return [items]
    if dims_left <= 1:
        items.sort(key=lambda item: center_of(item)[axis])
        return slices_of(items, capacity)

    partitions_needed = math.ceil(n / capacity)
    slab_count = math.ceil(partitions_needed ** (1.0 / dims_left))
    slab_size = math.ceil(n / slab_count)

    items.sort(key=lambda item: center_of(item)[axis])
    groups: list[list[T]] = []
    for start in range(0, n, slab_size):
        slab = items[start : start + slab_size]
        groups.extend(_tile(slab, capacity, center_of, axis + 1, dims_left - 1))
    return groups


def str_tile(centers, capacity: int):
    """:func:`str_partition` over an ``(n, D)`` array of centres.

    Returns ``(order, bounds)``: group ``g`` holds the rows
    ``order[bounds[g]:bounds[g + 1]]``.  Groups, their members and the
    member order are exactly :func:`str_partition`'s — the same slab
    arithmetic, and a stable argsort wherever it stably sorts — so a
    hierarchy packed from arrays equals one packed from objects.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n, dim = centers.shape
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    runs: list = []
    bounds = [0]

    def tile(rows, axis: int, dims_left: int) -> None:
        count = len(rows)
        if count > capacity:
            rows = rows[np.argsort(centers[rows, axis], kind="stable")]
            if dims_left > 1:
                partitions_needed = math.ceil(count / capacity)
                slab_count = math.ceil(partitions_needed ** (1.0 / dims_left))
                slab_size = math.ceil(count / slab_count)
                for start in range(0, count, slab_size):
                    tile(rows[start : start + slab_size], axis + 1, dims_left - 1)
                return
        # A sorted run (or an unsorted one that fits one group), cut
        # into consecutive groups of ``capacity``.
        runs.append(rows)
        offset = bounds[-1]
        bounds.extend(range(offset + capacity, offset + count, capacity))
        bounds.append(offset + count)

    tile(np.arange(n, dtype=np.int64), 0, dim)
    return np.concatenate(runs), np.asarray(bounds, dtype=np.int64)
