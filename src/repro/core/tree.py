"""TOUCH's hierarchical data-oriented partitioning tree (paper §4.3).

Phase one of TOUCH: the objects of dataset A are grouped into ``p``
spatially coherent buckets with STR packing (the paper's choice, §5.1);
every bucket becomes a leaf node, and the hierarchy is built bottom-up by
repeatedly STR-grouping ``fanout`` nodes under a parent whose MBR encloses
them.  Unlike a disk R-Tree, the fanout and bucket size are free
parameters — "we no longer have to align the data structures for the disk
page size" (§4.1).

Nodes carry two entity lists: leaf nodes hold their bucket of A objects
(``entities_a``); any node may later receive B objects (``entities_b``)
during the assignment phase.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable, concat_ranges
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.rtree.str_pack import str_tile
from repro.stats import memory as memmodel

__all__ = ["TouchNode", "TouchTree", "DEFAULT_FANOUT", "DEFAULT_PARTITIONS"]

DEFAULT_FANOUT = 2  # the paper's best setting (§6.1)
DEFAULT_PARTITIONS = 1024  # the paper's bucket count (§6.1)


class TouchNode:
    """A node of the TOUCH tree.

    Attributes
    ----------
    mbr:
        Tight bound of the A objects below this node (assignment never
        enlarges MBRs: B objects are attached, not bounded).
    level:
        0 for leaves (buckets), increasing towards the root.
    children:
        Child nodes (empty for leaves).
    entities_a:
        The bucket of A objects (leaves only).
    entities_b:
        B objects assigned to this node during phase two.
    """

    __slots__ = ("mbr", "level", "children", "entities_a", "entities_b")

    def __init__(
        self,
        mbr: MBR,
        level: int,
        children: "list[TouchNode] | None" = None,
        entities_a: list[SpatialObject] | None = None,
    ) -> None:
        self.mbr = mbr
        self.level = level
        self.children = children if children is not None else []
        self.entities_a = entities_a if entities_a is not None else []
        self.entities_b: list[SpatialObject] = []

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a bucket of A objects."""
        return self.level == 0

    def __repr__(self) -> str:
        return (
            f"TouchNode(level={self.level}, |A|={len(self.entities_a)}, "
            f"|B|={len(self.entities_b)}, children={len(self.children)})"
        )

    def iter_subtree(self) -> Iterator["TouchNode"]:
        """This node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def iter_leaf_objects(self) -> Iterator[SpatialObject]:
        """All A objects in the leaves of this subtree."""
        for node in self.iter_subtree():
            if node.is_leaf:
                yield from node.entities_a


class TouchTree:
    """The phase-one hierarchy built on dataset A.

    Parameters
    ----------
    objects_a:
        Dataset A (non-empty).
    fanout:
        Children per internal node (paper default: 2).
    num_partitions:
        Number of leaf buckets ``p`` (paper §6.1 setting: 1024).  The
        bucket capacity is ``ceil(|A| / p)``.  When ``None``, Algorithm
        2's literal rule applies instead: buckets have ``fanout`` objects
        ("partition objs into partitions of size fo"), which couples the
        leaf MBR size to the fanout — the mechanism behind the Figure 14
        filtering/comparison trends.  Ignored when ``leaf_capacity`` is
        given.
    leaf_capacity:
        Direct bucket capacity override.

    The build runs on A's coordinate table (:meth:`build`): every level
    is one STR tiling of the level below by box centre, and node bounds
    are segment reductions over the tiled rows.
    """

    def __init__(
        self,
        objects_a: Sequence[SpatialObject],
        fanout: int = DEFAULT_FANOUT,
        num_partitions: int | None = DEFAULT_PARTITIONS,
        leaf_capacity: int | None = None,
    ) -> None:
        self._build(objects_a, None, fanout, num_partitions, leaf_capacity)

    @classmethod
    def build(
        cls,
        objects_a: Sequence[SpatialObject],
        table_a: CoordinateTable | None = None,
        fanout: int = DEFAULT_FANOUT,
        num_partitions: int | None = DEFAULT_PARTITIONS,
        leaf_capacity: int | None = None,
    ) -> "tuple[TouchTree, np.ndarray]":
        """Build the tree and return it with A's rows in leaf order.

        ``table_a`` is ``objects_a`` as a coordinate table (row ``i`` is
        ``objects_a[i]``); it is converted here when omitted.  The
        returned ``leaf_rows`` lists the rows of ``table_a`` leaf by
        leaf in :meth:`leaves` order, so a columnar caller lays A out in
        leaf order with one ``table_a.take(leaf_rows)``.  The tree keeps
        neither the table nor the row array.
        """
        tree = cls.__new__(cls)
        leaf_rows = tree._build(
            objects_a, table_a, fanout, num_partitions, leaf_capacity
        )
        return tree, leaf_rows

    def _build(
        self,
        objects_a: Sequence[SpatialObject],
        table_a: CoordinateTable | None,
        fanout: int,
        num_partitions: int | None,
        leaf_capacity: int | None,
    ) -> np.ndarray:
        if not objects_a:
            raise ValueError("cannot build a TOUCH tree on an empty dataset")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")

        n = len(objects_a)
        if leaf_capacity is None:
            if num_partitions is None:
                leaf_capacity = fanout  # Algorithm 2: buckets of size fo
            else:
                if num_partitions < 1:
                    raise ValueError(
                        f"num_partitions must be >= 1, got {num_partitions}"
                    )
                leaf_capacity = max(1, math.ceil(n / num_partitions))
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if table_a is None:
            table_a = CoordinateTable.from_objects(objects_a)

        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self.dim = table_a.dim
        self.n_objects_a = n

        # Level 0: STR buckets of A's rows; above it, STR groups of
        # ``fanout`` nodes of the level below, until one node is left.
        nodes, lo, hi, row_order, row_bounds = _pack_level(
            objects_a, table_a.lo, table_a.hi, leaf_capacity, level=0
        )
        bucket_of = {leaf: bucket for bucket, leaf in enumerate(nodes)}
        level = 0
        while len(nodes) > 1:
            level += 1
            nodes, lo, hi, _, _ = _pack_level(nodes, lo, hi, fanout, level)
        self.root = nodes[0]

        buckets = np.array([bucket_of[leaf] for leaf in self.leaves()])
        _, positions = concat_ranges(
            row_bounds[buckets], row_bounds[buckets + 1] - row_bounds[buckets]
        )
        return row_order[positions]

    # -- inspection -------------------------------------------------------
    def iter_nodes(self) -> Iterator[TouchNode]:
        """All nodes, pre-order."""
        yield from self.root.iter_subtree()

    def leaves(self) -> list[TouchNode]:
        """All leaf buckets."""
        return [node for node in self.iter_nodes() if node.is_leaf]

    def node_count(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def height(self) -> int:
        """Number of levels (1 for a single-bucket tree)."""
        return self.root.level + 1

    def assigned_b_count(self) -> int:
        """B objects currently attached anywhere in the tree."""
        return sum(len(node.entities_b) for node in self.iter_nodes())

    def memory_bytes(self) -> int:
        """Analytic footprint: nodes, bucket references, B references.

        TOUCH "keeps the buckets constructed based on dataset A in
        addition to the tree" (§6.4), which is why its footprint sits
        slightly above INL's single tree.
        """
        nodes = self.node_count()
        return (
            nodes * memmodel.node_bytes(self.dim, self.fanout)
            + memmodel.reference_list_bytes(self.n_objects_a)
            + memmodel.reference_list_bytes(self.assigned_b_count())
        )


def _pack_level(members, lo, hi, capacity: int, level: int):
    """One STR level: nodes over groups of ``members``.

    ``members`` are A's objects at level 0 and the nodes of the level
    below above it; ``lo`` / ``hi`` are their corners as ``(n, D)``
    arrays.  Returns the new nodes, their corner arrays, and the tiling
    ``(order, bounds)`` of :func:`~repro.rtree.str_pack.str_tile`.
    """
    order, bounds = str_tile((lo + hi) / 2.0, capacity)
    node_lo, lo_rows = _bound_rows(lo, order, bounds, np.minimum)
    node_hi, hi_rows = _bound_rows(hi, order, bounds, np.maximum)
    tiled = [members[i] for i in order.tolist()]
    edges = bounds.tolist()
    nodes = []
    for begin, end, lo_row, hi_row in zip(
        edges[:-1], edges[1:], lo_rows.tolist(), hi_rows.tolist()
    ):
        # Reuse the member's own float for every bound, as ``total_mbr``
        # does, rather than a copy per node.
        mbr = MBR(
            tuple(members[row].mbr.lo[d] for d, row in enumerate(lo_row)),
            tuple(members[row].mbr.hi[d] for d, row in enumerate(hi_row)),
        )
        group = tiled[begin:end]
        if level == 0:
            nodes.append(TouchNode(mbr, level, entities_a=group))
        else:
            nodes.append(TouchNode(mbr, level, children=group))
    return nodes, node_lo, node_hi, order, bounds


def _bound_rows(values, order, bounds, reduce):
    """Group bounds of ``values`` and, per group and dimension, the row
    of the first member (in tile order) attaining the bound.

    Groups are ``order[bounds[g]:bounds[g + 1]]``; ``reduce`` is
    ``np.minimum`` for low corners and ``np.maximum`` for high ones.
    """
    tiled = values[order]
    starts = bounds[:-1]
    bound = reduce.reduceat(tiled, starts, axis=0)
    attains = tiled == np.repeat(bound, np.diff(bounds), axis=0)
    rows = np.empty(bound.shape, dtype=np.int64)
    for d in range(values.shape[1]):
        hits = np.flatnonzero(attains[:, d])
        rows[:, d] = order[hits[np.searchsorted(hits, starts)]]
    return bound, rows
