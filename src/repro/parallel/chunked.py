"""Chunked execution: the paper's BlueGene/P decomposition, simulated.

§3 of the paper: "the dataset is split into 16K contiguous subsets, each
subset is loaded in the memory of a core and the distance join is
performed locally (independent of the other cores and thus massively
parallel)".  This module reproduces that decomposition on one machine,
sequentially — one region at a time, as if a single core played every
role.  The decomposition geometry and the boundary-ownership rule live
in :mod:`repro.parallel.decompose`, shared with the true multiprocess
engine (:mod:`repro.parallel.engine`), so both produce identical pair
sets and identical summed counters for the same ``(kind, n_chunks)``.

Per-chunk statistics are merged: counters add up (total work), memory
takes the per-chunk maximum (each core only ever holds one chunk).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, SpatialJoinAlgorithm
from repro.joins.registry import AlgorithmSpec
from repro.parallel.decompose import AxisColumns, Decomposition, slab_bounds
from repro.stats.counters import JoinStatistics

__all__ = ["ChunkedSpatialJoin", "slab_bounds"]


class ChunkedSpatialJoin(SpatialJoinAlgorithm):
    """Run a base join independently over contiguous spatial chunks.

    Parameters
    ----------
    base_factory:
        Zero-argument callable producing a fresh join algorithm per chunk
        (each "core" gets its own instance, as on the BlueGene/P), or an
        :class:`~repro.joins.registry.AlgorithmSpec`.
    n_chunks:
        Number of contiguous regions.
    axis:
        Axis along which the universe is sliced (``kind="slabs"``; for
        tiles it selects the first of the two partitioned axes).
    kind:
        ``"slabs"`` (1-D intervals, the paper's layout) or ``"tiles"``
        (2-D grid, finer regions at the same chunk count).
    """

    name = "Chunked"

    def __init__(
        self,
        base_factory: Callable[[], SpatialJoinAlgorithm] | AlgorithmSpec,
        n_chunks: int = 4,
        axis: int = 0,
        kind: str = "slabs",
    ) -> None:
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if isinstance(base_factory, AlgorithmSpec):
            base_factory = base_factory.make
        self.base_factory = base_factory
        self.n_chunks = n_chunks
        self.axis = axis
        self.kind = kind
        sample = base_factory()
        suffix = "" if kind == "slabs" else f":{kind}"
        self.name = f"Chunked[{sample.name}x{n_chunks}{suffix}]"

    def describe(self) -> dict:
        return {"n_chunks": self.n_chunks, "axis": self.axis, "decompose": self.kind}

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        if not objects_a or not objects_b:
            return []
        start = time.perf_counter()
        axes = Decomposition.partition_axes(self.kind, objects_a[0].mbr.dim, self.axis)
        columns_a = AxisColumns.from_objects(objects_a, axes)
        columns_b = AxisColumns.from_objects(objects_b, axes)
        decomposition = Decomposition.spanning(self.n_chunks, columns_a, columns_b)
        chunks = [
            (region, decomposition.member_rows(region, columns_a),
             decomposition.member_rows(region, columns_b))
            for region in decomposition.regions
        ]
        decompose_seconds = time.perf_counter() - start

        pairs: list[Pair] = []
        duplicates = 0
        worker_seconds = 0.0
        for region, rows_a, rows_b in chunks:
            if not len(rows_a) or not len(rows_b):
                continue
            start = time.perf_counter()
            result = self.base_factory().join(
                [objects_a[row] for row in rows_a.tolist()],
                [objects_b[row] for row in rows_b.tolist()],
            )
            stats.merge(result.stats)

            stats.dedup_checks += len(result.pairs)
            owned = decomposition.owned_pairs(
                region, result.pairs, columns_a.take(rows_a), columns_b.take(rows_b)
            )
            pairs.extend(owned)
            duplicates += len(result.pairs) - len(owned)
            worker_seconds += time.perf_counter() - start
        stats.duplicates_suppressed += duplicates
        stats.result_pairs = len(pairs)
        stats.extra["n_chunks"] = self.n_chunks
        stats.extra["decompose"] = decomposition.kind
        stats.extra["decompose_seconds"] = decompose_seconds
        stats.extra["worker_join_seconds"] = worker_seconds
        stats.extra["merge_seconds"] = 0.0
        return pairs
