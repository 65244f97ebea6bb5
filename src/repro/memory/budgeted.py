"""Memory-budgeted spatial join with partition spilling.

TOUCH is an *in-memory* join; PR 5-7 grew it into a long-lived serving
tier, still assuming both datasets (and every replica) fit in RAM.
:class:`BudgetedSpatialJoin` removes that assumption: given a byte
budget, it joins datasets whose priced footprint exceeds the budget by
decomposing the universe into tiles, keeping as many tiles resident as
the budget allows and spilling the rest to disk as ``.npy`` row-slices,
mirroring the AsterixDB build/probe spill lifecycle (``spilledStatus``
bookkeeping, ``freeMem`` accounting, unspill-on-close):

1. **Partition & price.**  The universe is decomposed exactly as the
   chunked/parallel engines do (:mod:`repro.parallel.decompose`), so the
   boundary-ownership rule guarantees a duplicate-free merge.  Universe
   and members come from the partitioned-axis columns of both sides
   (:class:`~repro.parallel.decompose.AxisColumns`, ``k <= 2`` axes); no
   whole-side coordinate table is built.  Each partition is priced with
   the base algorithm's ``estimate_bytes``.
2. **Admit or spill.**  Partitions charge the
   :class:`~repro.memory.budget.MemoryBudget` first-fit; whatever does
   not fit is packed from its own rows into coordinate tables, written
   to a :class:`~repro.memory.spill.SpillStore`, and its member lists
   are dropped.  The whole-side columns are dropped after this phase.
3. **Resident pass.**  Resident partitions join first, releasing their
   charge as each local join closes.
4. **Unspill-on-close.**  With the build side shrunk, spilled
   partitions are pulled back in passes: each pass admits every
   partition that now fits (an *unspill*), joins it, and releases it.
5. **Recursive repartitioning.**  A skewed partition that exceeds the
   whole budget on its own is re-decomposed by a nested budgeted join
   over its members (bounded depth), so heavy tiles degrade to more,
   smaller spills instead of blowing the budget.

Pair parity with the unbudgeted algorithm is exact: every partition
join is complete and sound for its members, and the reference-point
ownership filter keeps each pair exactly once — the same argument the
chunked-parity suite proves for :class:`ChunkedSpatialJoin`.

Spill activity is recorded in ``stats.extra`` (see
:data:`~repro.memory.budget.SPILL_COUNTER_KEYS`) and, when a shared
:class:`~repro.memory.budget.SpillMetrics` is attached, aggregated into
the owning service's ``stats()``.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from repro.geometry.columnar import CoordinateTable
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, SpatialJoinAlgorithm, dimensionality
from repro.joins.registry import AlgorithmSpec
from repro.memory.budget import MemoryBudget, SpillMetrics, validate_max_bytes
from repro.memory.spill import SpilledPartition, SpillStore
from repro.parallel.decompose import AxisColumns, Decomposition
from repro.stats.counters import JoinStatistics

__all__ = ["BudgetedSpatialJoin"]

#: Upper bound on partitions per decomposition level; recursion splits
#: further when a single level cannot isolate the skew.
MAX_SPILL_PARTITIONS = 64
#: Recursion bound for skewed partitions that refuse to shrink (e.g.
#: every box stacked on one point).  At the bound the partition joins
#: in one piece and the overrun is counted instead.
MAX_REPARTITION_DEPTH = 3


class BudgetedSpatialJoin(SpatialJoinAlgorithm):
    """Run any registered join under a byte budget, spilling partitions.

    Parameters
    ----------
    base:
        Registry name, :class:`~repro.joins.registry.AlgorithmSpec` or
        zero-argument factory for the underlying algorithm (a fresh
        instance joins every partition).
    max_bytes:
        The byte budget.  Joins whose priced footprint fits run the base
        algorithm unchanged (zero spill counters).
    kind / axis:
        Decomposition geometry, as in the chunked/parallel engines.
    spill_root:
        Directory under which the per-join spill directory is created
        (system temp dir by default).
    metrics:
        Optional shared :class:`~repro.memory.budget.SpillMetrics`;
        the service layer attaches its own to aggregate counters across
        probes.
    """

    name = "Budgeted"

    def __init__(
        self,
        base: "str | AlgorithmSpec | Callable[[], SpatialJoinAlgorithm]",
        max_bytes: int,
        *,
        kind: str = "tiles",
        axis: int = 0,
        spill_root: str | None = None,
        metrics: SpillMetrics | None = None,
        max_partitions: int = MAX_SPILL_PARTITIONS,
        max_depth: int = MAX_REPARTITION_DEPTH,
        _depth: int = 0,
    ) -> None:
        self.max_bytes = validate_max_bytes(max_bytes)
        if isinstance(base, str):
            base = AlgorithmSpec.create(base)
        self.base = base
        self.base_factory = base.make if isinstance(base, AlgorithmSpec) else base
        self.kind = kind
        self.axis = axis
        self.spill_root = spill_root
        self.metrics = metrics
        self.max_partitions = max_partitions
        self.max_depth = max_depth
        self._depth = _depth
        sample = self.base_factory()
        self.base_name = sample.name
        self.name = f"Budgeted[{sample.name}]"
        #: Spill directory of the most recent join — removed by the time
        #: the join returns; kept for the hygiene tests.
        self.last_spill_dir: str | None = None

    def describe(self) -> dict:
        return {
            "base": self.base_name,
            "max_bytes": self.max_bytes,
            "decompose": self.kind,
            "max_partitions": self.max_partitions,
        }

    def estimate_bytes(self, n_a: int, n_b: int, dim: int) -> int:
        return self.base_factory().estimate_bytes(n_a, n_b, dim)

    # -- engine --------------------------------------------------------
    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        counters = {key: 0 for key in (
            "spilled_partitions", "spill_bytes_written", "spill_bytes_read",
            "unspills", "spill_passes", "recursive_repartitions",
            "budget_overruns", "resident_partitions",
        )}
        stats.extra["budget_bytes"] = self.max_bytes
        stats.extra.update(counters)
        if not objects_a or not objects_b:
            return []

        pricer = self.base_factory()
        dim = dimensionality(objects_a, objects_b)
        estimated = pricer.estimate_bytes(len(objects_a), len(objects_b), dim)
        stats.extra["estimated_bytes"] = estimated
        if estimated <= self.max_bytes:
            result = self.base_factory().join(objects_a, objects_b)
            stats.merge(result.stats)
            return list(result.pairs)

        pairs = self._spilling_join(
            objects_a, objects_b, pricer, dim, estimated, stats, counters
        )
        stats.extra.update(counters)
        if self.metrics is not None and self._depth == 0:
            self.metrics.add(
                spilled_joins=1,
                **{key: counters[key] for key in counters if key != "resident_partitions"},
            )
        return pairs

    def _spilling_join(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        pricer: SpatialJoinAlgorithm,
        dim: int,
        estimated: int,
        stats: JoinStatistics,
        counters: dict[str, int],
    ) -> list[Pair]:
        # Oversplit by 2x: members of neighbouring tiles overlap
        # (straddlers replicate), so even splits still need headroom.
        n_parts = min(
            self.max_partitions,
            max(2, -(-2 * estimated // self.max_bytes)),
        )
        # Only the partitioned axes are read: they give the universe,
        # every region's members and (per partition) pair ownership.
        axes = Decomposition.partition_axes(self.kind, dim, self.axis)
        columns_a = AxisColumns.from_objects(objects_a, axes)
        columns_b = AxisColumns.from_objects(objects_b, axes)
        decomposition = Decomposition.spanning(n_parts, columns_a, columns_b)
        stats.extra["spill_partitions_total"] = len(decomposition.regions)

        budget = MemoryBudget(self.max_bytes)
        store = SpillStore(root=self.spill_root)
        self.last_spill_dir = store.directory
        pairs: list[Pair] = []
        try:
            # Phase 1: admit first-fit, spill the rest.  A resident
            # partition keeps its members and their columns; a spilled
            # one is packed from its own rows.
            resident: list[tuple[int, _Partition, int]] = []
            spilled: list[tuple[int, SpilledPartition]] = []
            for region in decomposition.regions:
                rows_a = decomposition.member_rows(region, columns_a)
                rows_b = decomposition.member_rows(region, columns_b)
                if not len(rows_a) or not len(rows_b):
                    continue
                chunk_a = [objects_a[row] for row in rows_a.tolist()]
                chunk_b = [objects_b[row] for row in rows_b.tolist()]
                cost = pricer.estimate_bytes(len(chunk_a), len(chunk_b), dim)
                if budget.fits(cost):
                    budget.charge(cost)
                    partition = _Partition(
                        chunk_a, chunk_b, columns_a.take(rows_a), columns_b.take(rows_b)
                    )
                    resident.append((region.index, partition, cost))
                else:
                    part = store.write(
                        region.index,
                        CoordinateTable.from_objects(chunk_a),
                        CoordinateTable.from_objects(chunk_b),
                    )
                    spilled.append((region.index, part))
                del chunk_a, chunk_b
            del columns_a, columns_b
            counters["resident_partitions"] += len(resident)
            counters["spilled_partitions"] += len(spilled)
            counters["spill_bytes_written"] += store.bytes_written

            # Phase 2: join resident partitions, releasing as each closes.
            for index, partition, cost in resident:
                pairs.extend(
                    self._join_partition(decomposition, index, partition, stats)
                )
                budget.release(cost)
            resident.clear()

            # Phase 3: unspill-on-close — pull spilled partitions back in
            # passes now that the resident charges are gone.
            queue = spilled
            while queue:
                counters["spill_passes"] += 1
                admitted: list[tuple[int, SpilledPartition, int]] = []
                deferred: list[tuple[int, SpilledPartition]] = []
                for index, part in queue:
                    cost = pricer.estimate_bytes(part.n_a, part.n_b, dim)
                    if budget.fits(cost):
                        budget.charge(cost)
                        admitted.append((index, part, cost))
                    else:
                        deferred.append((index, part))
                if not admitted:
                    # Head of the queue exceeds the whole (empty) budget:
                    # skewed partition — recursively repartition it.
                    index, part = deferred.pop(0)
                    partition = _unspill(store, part, axes)
                    counters["spill_bytes_read"] += part.file_bytes
                    pairs.extend(
                        self._join_skewed(
                            decomposition, index, partition, stats, counters
                        )
                    )
                    queue = deferred
                    continue
                for index, part, cost in admitted:
                    partition = _unspill(store, part, axes)
                    counters["spill_bytes_read"] += part.file_bytes
                    counters["unspills"] += 1
                    pairs.extend(
                        self._join_partition(decomposition, index, partition, stats)
                    )
                    budget.release(cost)
                queue = deferred
        finally:
            store.close()
        stats.extra["budget_peak_bytes"] = budget.peak_bytes
        return pairs

    def _join_partition(
        self,
        decomposition: Decomposition,
        index: int,
        partition: _Partition,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Join one partition and keep only the pairs this region owns."""
        start = time.perf_counter()
        result = self.base_factory().join(partition.objects_a, partition.objects_b)
        stats.merge(result.stats)
        owned = _keep_owned(decomposition, index, result.pairs, partition, stats)
        stats.extra["partition_join_seconds"] = stats.extra.get(
            "partition_join_seconds", 0.0
        ) + (time.perf_counter() - start)
        return owned

    def _join_skewed(
        self,
        decomposition: Decomposition,
        index: int,
        partition: _Partition,
        stats: JoinStatistics,
        counters: dict[str, int],
    ) -> list[Pair]:
        """A partition bigger than the whole budget: recurse or overrun."""
        if self._depth >= self.max_depth:
            counters["budget_overruns"] += 1
            return self._join_partition(decomposition, index, partition, stats)
        counters["recursive_repartitions"] += 1
        nested = BudgetedSpatialJoin(
            self.base,
            self.max_bytes,
            kind=self.kind,
            axis=self.axis,
            spill_root=self.spill_root,
            metrics=None,  # parent folds the nested counters in below
            max_partitions=self.max_partitions,
            max_depth=self.max_depth,
            _depth=self._depth + 1,
        )
        result = nested.join(partition.objects_a, partition.objects_b)
        stats.merge(result.stats)
        for key in counters:
            counters[key] += int(result.stats.extra.get(key, 0))
        # The nested join is complete and duplicate-free for the members;
        # the parent region's ownership filter dedups the straddlers.
        return _keep_owned(decomposition, index, result.pairs, partition, stats)
    # NOTE: phase-3 recursion happens with the parent budget drained, so
    # the nested join sees the full budget — skew degrades to more,
    # smaller spills rather than an unbounded resident set.


class _Partition(NamedTuple):
    """One partition in memory: both sides' members and their columns."""

    objects_a: list[SpatialObject]
    objects_b: list[SpatialObject]
    columns_a: AxisColumns
    columns_b: AxisColumns


def _unspill(store: SpillStore, part: SpilledPartition, axes) -> _Partition:
    """Read a spilled partition back as objects plus ownership columns."""
    table_a, table_b = store.read(part)
    return _Partition(
        table_a.to_objects(),
        table_b.to_objects(),
        AxisColumns.from_table(table_a, axes),
        AxisColumns.from_table(table_b, axes),
    )


def _keep_owned(
    decomposition: Decomposition,
    index: int,
    pairs: list[Pair],
    partition: _Partition,
    stats: JoinStatistics,
) -> list[Pair]:
    """The reference-point filter, with its dedup counters."""
    stats.dedup_checks += len(pairs)
    owned = decomposition.owned_pairs(
        decomposition.regions[index], pairs, partition.columns_a, partition.columns_b
    )
    stats.duplicates_suppressed += len(pairs) - len(owned)
    return owned
