"""Spatial decomposition shared by the chunked and multiprocess engines.

§3 of the paper: "the dataset is split into 16K contiguous subsets, each
subset is loaded in the memory of a core and the distance join is
performed locally (independent of the other cores and thus massively
parallel)".  This module owns the geometry of that decomposition so the
sequential simulation (:class:`~repro.parallel.chunked.ChunkedSpatialJoin`)
and the real multiprocess engine
(:class:`~repro.parallel.engine.ParallelChunkedJoin`) cut the universe —
and deduplicate boundary pairs — *identically*:

- **slabs**: the universe is cut into ``n_chunks`` contiguous intervals
  along one axis (the paper's BlueGene/P layout);
- **tiles**: a 2-D grid over two axes, the layout of "Parallel In-Memory
  Evaluation of Spatial Joins" — finer regions at the same chunk count,
  so skewed data spreads across workers more evenly.

Every region receives each object whose MBR *touches* it (closed
intervals — objects straddling a boundary are seen by several regions).
Cross-region duplicates are suppressed with the reference-point rule: a
pair belongs to the unique region containing the point
``ref[d] = max(a.lo[d], b.lo[d])`` on every partitioned axis ``d``.

Ownership is resolved by binary search over the *shared* region edges
(:meth:`Decomposition.owner_cell`), which makes the intervals half-open
``[edge_i, edge_i+1)`` with the final interval closed at the universe
bound.  Resolving against the global edge list (rather than testing each
region's own ``[lo, hi)`` in isolation) guarantees every reference point
has exactly one owner even when floating-point rounding makes adjacent
interval bounds disagree — the historical per-slab test lost pairs whose
reference point landed exactly on an interior edge a slab believed it
did not own.

The engines apply both rules to whole columns at once: membership and
ownership read :class:`AxisColumns` — per-object ids plus the lo/hi
bounds of the partitioned axes only — through
:meth:`Decomposition.member_rows` and :meth:`Decomposition.owned_pairs`.
The scalar :meth:`Region.touches` and :meth:`Decomposition.owner_index`
stay as the oracles those array rules are tested against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject

__all__ = [
    "slab_bounds",
    "tile_grid",
    "adaptive_chunk_count",
    "AxisColumns",
    "Region",
    "Decomposition",
    "DECOMPOSE_KINDS",
    "DEFAULT_OBJECTS_PER_CHUNK",
    "MAX_ADAPTIVE_CHUNKS",
]

#: Valid values of the ``kind`` / ``--decompose`` selector.
DECOMPOSE_KINDS = ("slabs", "tiles")

#: Target object count per chunk for the adaptive heuristic: small
#: enough that per-core state stays cache-friendly, large enough that
#: per-chunk fixed costs (index build, IPC) stay amortised.
DEFAULT_OBJECTS_PER_CHUNK = 4096

#: Upper bound of the adaptive heuristic; beyond this, replication of
#: boundary straddlers starts to dominate the shrinking per-chunk work.
MAX_ADAPTIVE_CHUNKS = 256


def slab_bounds(lo: float, hi: float, n_chunks: int) -> list[tuple[float, float]]:
    """Split ``[lo, hi]`` into ``n_chunks`` equal contiguous intervals."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if hi < lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    width = (hi - lo) / n_chunks
    bounds = [(lo + i * width, lo + (i + 1) * width) for i in range(n_chunks)]
    # Close the final slab exactly at hi to avoid floating-point gaps.
    bounds[-1] = (bounds[-1][0], hi)
    return bounds


def tile_grid(n_chunks: int, extent_x: float, extent_y: float) -> tuple[int, int]:
    """Factor ``n_chunks`` into an ``(nx, ny)`` grid of near-square tiles.

    Among all factorisations ``nx * ny == n_chunks`` the one whose tiles
    are closest to square (cell aspect ratio nearest 1 given the two
    universe extents) is chosen, so elongated universes get more cuts
    along their long axis.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    best = (n_chunks, 1)
    best_score = math.inf
    for nx in range(1, n_chunks + 1):
        if n_chunks % nx:
            continue
        ny = n_chunks // nx
        width = extent_x / nx if extent_x > 0 else 1.0
        height = extent_y / ny if extent_y > 0 else 1.0
        aspect = max(width, height) / max(min(width, height), 1e-300)
        if aspect < best_score:
            best_score = aspect
            best = (nx, ny)
    return best


def adaptive_chunk_count(
    n_objects: int,
    workers: int = 1,
    target_per_chunk: int = DEFAULT_OBJECTS_PER_CHUNK,
    max_chunks: int = MAX_ADAPTIVE_CHUNKS,
) -> int:
    """Pick a chunk count from the workload size and worker count.

    Enough chunks that (a) every worker has at least one region to own
    and (b) no region holds more than ``target_per_chunk`` objects on
    average, capped at ``max_chunks`` so boundary replication cannot run
    away on huge inputs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    by_size = math.ceil(n_objects / target_per_chunk) if n_objects > 0 else 1
    return min(max_chunks, max(1, workers, by_size))


class AxisColumns:
    """One dataset's columns on a decomposition's partitioned axes.

    ``ids`` is the ``(n,)`` int64 oid vector; ``lo``/``hi`` are ``(n, k)``
    float64 arrays whose column ``c`` holds the box bounds along
    ``axes[c]``.  Only the ``k <= 2`` partitioned axes are kept — the
    rest of each box plays no part in membership or ownership.
    """

    __slots__ = ("axes", "ids", "lo", "hi")

    def __init__(self, axes: tuple[int, ...], ids, lo, hi) -> None:
        self.axes = axes
        self.ids = ids
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_objects(
        cls, objects: Sequence[SpatialObject], axes: tuple[int, ...]
    ) -> "AxisColumns":
        """Stream the columns out of spatial objects, one axis at a time."""
        n = len(objects)
        lo = np.empty((n, len(axes)), dtype=np.float64)
        hi = np.empty((n, len(axes)), dtype=np.float64)
        for column, axis in enumerate(axes):
            lo[:, column] = np.fromiter(
                (obj.mbr.lo[axis] for obj in objects), dtype=np.float64, count=n
            )
            hi[:, column] = np.fromiter(
                (obj.mbr.hi[axis] for obj in objects), dtype=np.float64, count=n
            )
        ids = np.fromiter((obj.oid for obj in objects), dtype=np.int64, count=n)
        return cls(axes, ids, lo, hi)

    @classmethod
    def from_table(
        cls, table: CoordinateTable, axes: tuple[int, ...]
    ) -> "AxisColumns":
        """Select the partitioned axes of a coordinate table."""
        dim = table.dim
        return cls(
            axes,
            table.ids,
            table.coords[:, list(axes)],
            table.coords[:, [axis + dim for axis in axes]],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "AxisColumns":
        """The columns of the given rows, in that order."""
        return AxisColumns(self.axes, self.ids[rows], self.lo[rows], self.hi[rows])

    def rows_of(self, oids):
        """Row of each oid; a repeated oid resolves to its last row.

        Last-occurrence-wins is what an ``{oid: row}`` dict built in row
        order gives.  An oid absent from the columns raises ``KeyError``.
        """
        order = np.argsort(self.ids, kind="stable")
        ranked = self.ids[order]
        positions = np.searchsorted(ranked, oids, side="right") - 1
        if len(oids) and (
            positions.min() < 0 or not np.array_equal(ranked[positions], oids)
        ):
            missing = np.setdiff1d(oids, self.ids)
            raise KeyError(f"oids not among the columns' rows: {missing[:5].tolist()}")
        return order[positions]


@dataclass(frozen=True)
class Region:
    """One contiguous piece of the decomposed universe.

    ``axes[i]`` is the partitioned axis of coordinate ``i``; ``cells[i]``
    the region's interval index along that axis; ``lows[i]``/``highs[i]``
    the interval bounds.  Frozen and tuple-only, so regions pickle across
    process boundaries for free.
    """

    index: int
    axes: tuple[int, ...]
    cells: tuple[int, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def touches(self, mbr: MBR) -> bool:
        """Closed-interval membership: does the MBR overlap this region?"""
        return all(
            mbr.hi[axis] >= lo and mbr.lo[axis] <= hi
            for axis, lo, hi in zip(self.axes, self.lows, self.highs)
        )


def _spans(universe: MBR, axes: tuple[int, ...]) -> list[tuple[float, float]]:
    return [(universe.lo[axis], universe.hi[axis]) for axis in axes]


class Decomposition:
    """A slab or tile cutting of a universe, with the ownership rule.

    Construct via :meth:`slabs`, :meth:`tiles` or :meth:`build`; the
    resulting object is picklable and is shipped verbatim to worker
    processes so parent and workers agree bit-for-bit on region edges.
    """

    __slots__ = ("kind", "axes", "shape", "bounds", "edges", "regions", "_rulers")

    def __init__(
        self,
        kind: str,
        axes: tuple[int, ...],
        bounds: tuple[tuple[tuple[float, float], ...], ...],
    ) -> None:
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if len(axes) != len(bounds) or not axes:
            raise ValueError("axes and bounds must align and be non-empty")
        self.kind = kind
        self.axes = axes
        self.bounds = bounds
        self.shape = tuple(len(per_axis) for per_axis in bounds)
        # Left edges per axis: the shared ownership ruler (see owner_cell).
        self.edges = tuple(
            tuple(lo for lo, _ in per_axis) for per_axis in bounds
        )
        self._rulers = [np.asarray(edges, dtype=np.float64) for edges in self.edges]
        self.regions = self._build_regions()

    def _build_regions(self) -> list[Region]:
        regions: list[Region] = []
        # C-order enumeration over the per-axis interval indices.
        counts = self.shape
        total = math.prod(counts)
        for flat in range(total):
            cells = []
            rest = flat
            for count in reversed(counts):
                rest, cell = divmod(rest, count)
                cells.append(cell)
            cells.reverse()
            regions.append(
                Region(
                    index=flat,
                    axes=self.axes,
                    cells=tuple(cells),
                    lows=tuple(
                        self.bounds[i][cell][0] for i, cell in enumerate(cells)
                    ),
                    highs=tuple(
                        self.bounds[i][cell][1] for i, cell in enumerate(cells)
                    ),
                )
            )
        return regions

    # -- construction --------------------------------------------------
    @staticmethod
    def partition_axes(kind: str, dim: int, axis: int = 0) -> tuple[int, ...]:
        """The axes a ``kind`` cut partitions in ``dim``-dimensional data.

        ``(axis,)`` for slabs; ``(axis, (axis + 1) % dim)`` for tiles,
        which fall back to slabs in 1-D.
        """
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if axis >= dim:
            raise ValueError(f"axis {axis} out of range for {dim}-dimensional data")
        if kind == "tiles" and dim >= 2:
            return (axis, (axis + 1) % dim)
        return (axis,)

    @classmethod
    def _cut(
        cls,
        axes: tuple[int, ...],
        spans: Sequence[tuple[float, float]],
        n_chunks: int,
    ) -> "Decomposition":
        """Slabs over one ``(lo, hi)`` span, near-square tiles over two."""
        if len(axes) == 1:
            ((lo, hi),) = spans
            return cls("slabs", axes, (tuple(slab_bounds(lo, hi, n_chunks)),))
        (x_lo, x_hi), (y_lo, y_hi) = spans
        nx, ny = tile_grid(n_chunks, x_hi - x_lo, y_hi - y_lo)
        return cls(
            "tiles",
            axes,
            (tuple(slab_bounds(x_lo, x_hi, nx)), tuple(slab_bounds(y_lo, y_hi, ny))),
        )

    @classmethod
    def slabs(cls, universe: MBR, n_chunks: int, axis: int = 0) -> "Decomposition":
        """Contiguous slabs along one axis (the paper's §3 layout)."""
        axes = cls.partition_axes("slabs", universe.dim, axis)
        return cls._cut(axes, _spans(universe, axes), n_chunks)

    @classmethod
    def tiles(
        cls, universe: MBR, n_chunks: int, axes: tuple[int, int] = (0, 1)
    ) -> "Decomposition":
        """A near-square 2-D grid of ``n_chunks`` tiles over two axes."""
        ax, ay = axes
        if ax == ay:
            raise ValueError(f"tile axes must differ, got {axes}")
        for axis in axes:  # range-checks each axis
            cls.partition_axes("slabs", universe.dim, axis)
        return cls._cut((ax, ay), _spans(universe, (ax, ay)), n_chunks)

    @classmethod
    def build(
        cls,
        universe: MBR,
        kind: str = "slabs",
        n_chunks: int = 4,
        axis: int = 0,
    ) -> "Decomposition":
        """Dispatch on ``kind``; tiles fall back to slabs in 1-D."""
        axes = cls.partition_axes(kind, universe.dim, axis)
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        return cls._cut(axes, _spans(universe, axes), n_chunks)

    @classmethod
    def spanning(cls, n_chunks: int, *sides: AxisColumns) -> "Decomposition":
        """Cut the universe the sides' columns span (every side non-empty).

        The same cut :meth:`build` makes over the sides' ``total_mbr``:
        the spans are the column minima and maxima, so only the
        partitioned axes are ever read.
        """
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        lows = np.min([side.lo.min(axis=0) for side in sides], axis=0)
        highs = np.max([side.hi.max(axis=0) for side in sides], axis=0)
        return cls._cut(sides[0].axes, list(zip(lows.tolist(), highs.tolist())), n_chunks)

    # -- pickling (``__slots__`` without a dict) -----------------------
    def __reduce__(self):
        return (Decomposition, (self.kind, self.axes, self.bounds))

    # -- protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.regions)

    def __repr__(self) -> str:
        return f"Decomposition({self.kind}, shape={self.shape}, axes={self.axes})"

    def describe(self) -> dict:
        return {"decompose": self.kind, "shape": self.shape, "axes": self.axes}

    # -- the shared ownership rule -------------------------------------
    def owner_cell(self, coordinate: int, value: float) -> int:
        """Interval index owning ``value`` along partitioned coordinate.

        Binary search over the shared left-edge list: half-open
        ``[edge_i, edge_i+1)`` intervals whose last member also owns the
        closing universe bound (and, defensively, anything beyond it).
        Total on the whole axis — no value can fall between regions.
        """
        edges = self.edges[coordinate]
        return min(max(bisect_right(edges, value) - 1, 0), len(edges) - 1)

    def owner_index(self, mbr_a: MBR, mbr_b: MBR) -> int:
        """Flat index of the region owning the pair ``(a, b)``.

        The reference point is ``max(a.lo[d], b.lo[d])`` per partitioned
        axis — a point both MBRs contain, so the owning region sees both
        objects and the local join reports the pair there.
        """
        flat = 0
        for coordinate, axis in enumerate(self.axes):
            reference = max(mbr_a.lo[axis], mbr_b.lo[axis])
            flat = flat * self.shape[coordinate] + self.owner_cell(
                coordinate, reference
            )
        return flat

    def owns(self, region: Region, mbr_a: MBR, mbr_b: MBR) -> bool:
        """Does ``region`` own the pair under the reference-point rule?"""
        return self.owner_index(mbr_a, mbr_b) == region.index

    # -- routing -------------------------------------------------------
    def covering_indices(self, mbr: MBR) -> list[int]:
        """Flat indices of every region the MBR covers (routing rule).

        The per-axis interval range is ``[owner_cell(lo), owner_cell(hi)]``
        — exactly the membership rule of :meth:`covers`, enumerated once
        for the whole decomposition instead of tested region by region.
        The sharded serving tier routes each probe MBR to precisely these
        shards; :meth:`covers` remains the per-region oracle the tests
        pin this enumeration against.
        """
        ranges = []
        for coordinate, axis in enumerate(self.axes):
            lo_cell = self.owner_cell(coordinate, mbr.lo[axis])
            hi_cell = self.owner_cell(coordinate, mbr.hi[axis])
            ranges.append(range(lo_cell, hi_cell + 1))
        flats: list[int] = []
        for cells in itertools.product(*ranges):
            flat = 0
            for coordinate, cell in enumerate(cells):
                flat = flat * self.shape[coordinate] + cell
            flats.append(flat)
        return flats

    # -- the two-layer classification ----------------------------------
    def covers(self, region: Region, mbr: MBR) -> bool:
        """Index-range membership used by ``dedup="partition"``.

        The MBR belongs to the regions whose interval index lies within
        ``[owner_cell(lo), owner_cell(hi)]`` on every partitioned axis —
        the multiple assignment of the two-layer scheme, resolved on the
        same shared-edge ruler as pair ownership.  Unlike the closed
        :meth:`Region.touches` test it excludes objects meeting a region
        only at its low boundary (their low corner is owned by the next
        region over); those replicas can never contribute an owned pair,
        and dropping them is what makes the per-region mini-joins
        duplicate-free without any per-pair test.
        """
        for coordinate, axis in enumerate(self.axes):
            cell = region.cells[coordinate]
            if not (
                self.owner_cell(coordinate, mbr.lo[axis])
                <= cell
                <= self.owner_cell(coordinate, mbr.hi[axis])
            ):
                return False
        return True

    def class_mask(self, region: Region, mbr: MBR) -> int:
        """Two-layer class mask of ``mbr``'s replica in ``region``.

        Bit ``i`` is set iff the region owns the MBR's low corner along
        partitioned coordinate ``i`` (see :mod:`repro.partition.classes`
        for the mini-join algebra built on these masks).  Exactly one
        covering region — the home region — has every bit set.
        """
        mask = 0
        for coordinate, axis in enumerate(self.axes):
            if self.owner_cell(coordinate, mbr.lo[axis]) == region.cells[coordinate]:
                mask |= 1 << coordinate
        return mask

    # -- the array rules ---------------------------------------------
    def _check_axes(self, columns: AxisColumns) -> None:
        if columns.axes != self.axes:
            raise ValueError(
                f"columns hold axes {columns.axes}, the decomposition "
                f"partitions {self.axes}"
            )

    def member_rows(self, region: Region, columns: AxisColumns):
        """Rows whose box touches ``region`` (closed intervals).

        Row for row the answer of :meth:`Region.touches`, as one float64
        comparison per interval bound instead of a call per object.
        """
        self._check_axes(columns)
        member = np.ones(len(columns), dtype=bool)
        for column, (low, high) in enumerate(zip(region.lows, region.highs)):
            member &= columns.hi[:, column] >= low
            member &= columns.lo[:, column] <= high
        return np.flatnonzero(member)

    def owner_cells(self, values):
        """:meth:`owner_cell` of every entry of an ``(n, k)`` array.

        One ``searchsorted(side="right")`` per partitioned axis, the
        vector form of ``bisect_right`` over the same edges.
        """
        cells = np.empty(values.shape, dtype=np.int64)
        for column, ruler in enumerate(self._rulers):
            found = np.searchsorted(ruler, values[:, column], side="right") - 1
            cells[:, column] = np.clip(found, 0, len(ruler) - 1)
        return cells

    def owner_indices(self, lo_a, lo_b):
        """:meth:`owner_index` of every pair of ``(m, k)`` low-corner rows."""
        # Python's max(a, b): b only where strictly greater.
        reference = np.where(lo_b > lo_a, lo_b, lo_a)
        cells = self.owner_cells(reference)
        flat = cells[:, 0]
        for column in range(1, len(self.axes)):
            flat = flat * self.shape[column] + cells[:, column]
        return flat

    def owned_pairs(
        self,
        region: Region,
        pairs: list[tuple[int, int]],
        columns_a: AxisColumns,
        columns_b: AxisColumns,
    ) -> list[tuple[int, int]]:
        """The pairs ``region`` owns, in their input order.

        Each oid resolves to its row in the side's columns (a repeated
        oid to its last row); the pair is kept where
        :meth:`owner_indices` of the two rows is the region's index —
        pair for pair the verdict of :meth:`owns`.
        """
        if not pairs:
            return []
        self._check_axes(columns_a)
        self._check_axes(columns_b)
        flat = np.fromiter(
            itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
        )
        rows_a = columns_a.rows_of(flat[0::2])
        rows_b = columns_b.rows_of(flat[1::2])
        owners = self.owner_indices(columns_a.lo[rows_a], columns_b.lo[rows_b])
        return list(itertools.compress(pairs, (owners == region.index).tolist()))
