"""The shared slab/tile decomposition and boundary-ownership rule."""

import pickle

import numpy as np
import pytest

from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject
from repro.parallel.decompose import (
    DEFAULT_OBJECTS_PER_CHUNK,
    MAX_ADAPTIVE_CHUNKS,
    AxisColumns,
    Decomposition,
    adaptive_chunk_count,
    slab_bounds,
    tile_grid,
)

UNIVERSE_2D = MBR((0.0, 0.0), (10.0, 10.0))
UNIVERSE_3D = MBR((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))


class TestSlabBounds:
    def test_even_split(self):
        assert slab_bounds(0.0, 10.0, 2) == [(0.0, 5.0), (5.0, 10.0)]

    def test_single_chunk(self):
        assert slab_bounds(0.0, 10.0, 1) == [(0.0, 10.0)]

    def test_last_slab_closed_at_hi(self):
        bounds = slab_bounds(0.0, 1.0, 3)
        assert bounds[-1][1] == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n_chunks"):
            slab_bounds(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="invalid interval"):
            slab_bounds(1.0, 0.0, 2)


class TestTileGrid:
    def test_square_universe_square_grid(self):
        assert tile_grid(4, 10.0, 10.0) == (2, 2)
        assert tile_grid(16, 10.0, 10.0) == (4, 4)

    def test_elongated_universe_cut_along_long_axis(self):
        nx, ny = tile_grid(4, 100.0, 1.0)
        assert nx == 4 and ny == 1
        nx, ny = tile_grid(4, 1.0, 100.0)
        assert nx == 1 and ny == 4

    def test_prime_counts_degenerate_to_strips(self):
        assert tile_grid(7, 10.0, 10.0) in ((7, 1), (1, 7))

    def test_total_is_exact(self):
        for n in (1, 2, 3, 6, 12, 30):
            nx, ny = tile_grid(n, 10.0, 7.0)
            assert nx * ny == n

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="n_chunks"):
            tile_grid(0, 1.0, 1.0)


class TestAdaptiveChunkCount:
    def test_at_least_one_chunk_per_worker(self):
        assert adaptive_chunk_count(10, workers=4) == 4

    def test_scales_with_objects(self):
        n = 10 * DEFAULT_OBJECTS_PER_CHUNK
        assert adaptive_chunk_count(n, workers=2) == 10

    def test_capped(self):
        huge = 10_000 * DEFAULT_OBJECTS_PER_CHUNK
        assert adaptive_chunk_count(huge, workers=2) == MAX_ADAPTIVE_CHUNKS

    def test_empty_input(self):
        assert adaptive_chunk_count(0, workers=1) == 1

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            adaptive_chunk_count(10, workers=0)


class TestSlabDecomposition:
    def test_regions_cover_universe(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 4, axis=0)
        assert len(decomposition) == 4
        assert decomposition.regions[0].lows == (0.0,)
        assert decomposition.regions[-1].highs == (10.0,)
        # Adjacent regions share an edge exactly.
        for left, right in zip(decomposition.regions, decomposition.regions[1:]):
            assert left.highs[0] == right.lows[0]

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Decomposition.slabs(UNIVERSE_2D, 2, axis=5)
        with pytest.raises(ValueError, match="axis"):
            Decomposition.slabs(UNIVERSE_2D, 2, axis=-1)

    def test_membership_is_closed(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        on_edge = MBR((5.0, 1.0), (5.0, 2.0))  # zero extent, exactly on edge
        assert decomposition.regions[0].touches(on_edge)
        assert decomposition.regions[1].touches(on_edge)

    def test_ownership_is_half_open(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        just_left = MBR((4.999, 0.0), (6.0, 1.0))
        at_edge = MBR((5.0, 0.0), (6.0, 1.0))
        assert decomposition.owner_index(just_left, just_left) == 0
        assert decomposition.owner_index(at_edge, at_edge) == 1

    def test_interior_edge_reference_has_exactly_one_owner(self):
        """Regression: a reference point exactly on an interior slab edge.

        The historical per-slab rule closed only the *last* slab's
        interval; resolving ownership against the shared edge list makes
        every interior edge belong to exactly one (the right-hand) slab.
        """
        decomposition = Decomposition.slabs(UNIVERSE_2D, 4, axis=0)
        for edge_cell, edge in enumerate([0.0, 2.5, 5.0, 7.5, 10.0]):
            box = MBR((edge, 0.0), (min(edge + 1.0, 10.0), 1.0))
            owners = [
                region
                for region in decomposition.regions
                if decomposition.owns(region, box, box)
            ]
            assert len(owners) == 1
            assert owners[0].cells[0] == min(edge_cell, 3)
            # The owner also *sees* both objects, so the pair is found.
            assert owners[0].touches(box)

    def test_universe_hi_owned_by_last_slab(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 3, axis=0)
        point = MBR((10.0, 4.0), (10.0, 4.0))
        assert decomposition.owner_index(point, point) == 2

    def test_reference_point_is_max_of_los(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        a = MBR((1.0, 0.0), (9.0, 1.0))  # spans both slabs
        b = MBR((6.0, 0.0), (7.0, 1.0))  # starts in slab 1
        assert decomposition.owner_index(a, b) == 1
        assert decomposition.owner_index(b, a) == 1  # symmetric


class TestTileDecomposition:
    def test_grid_shape(self):
        decomposition = Decomposition.tiles(UNIVERSE_3D, 4)
        assert decomposition.shape == (2, 2)
        assert len(decomposition) == 4
        assert decomposition.kind == "tiles"

    def test_flat_indices_match_owner_index(self):
        decomposition = Decomposition.tiles(UNIVERSE_2D, 4)
        probes = {
            (1.0, 1.0): (0, 0),
            (1.0, 6.0): (0, 1),
            (6.0, 1.0): (1, 0),
            (6.0, 6.0): (1, 1),
        }
        for point, cells in probes.items():
            box = MBR(point, point)
            flat = decomposition.owner_index(box, box)
            assert decomposition.regions[flat].cells == cells

    def test_same_axis_twice_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            Decomposition.tiles(UNIVERSE_2D, 4, axes=(1, 1))

    def test_corner_reference_single_owner(self):
        decomposition = Decomposition.tiles(UNIVERSE_2D, 4)
        corner = MBR((5.0, 5.0), (6.0, 6.0))
        owners = [
            region
            for region in decomposition.regions
            if decomposition.owns(region, corner, corner)
        ]
        assert len(owners) == 1 and owners[0].cells == (1, 1)


class TestBuildDispatch:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Decomposition.build(UNIVERSE_2D, kind="shards", n_chunks=2)

    def test_tiles_fall_back_to_slabs_in_1d(self):
        universe = MBR((0.0,), (10.0,))
        decomposition = Decomposition.build(universe, kind="tiles", n_chunks=3)
        assert decomposition.kind == "slabs"

    def test_high_axis_tiles_wrap(self):
        decomposition = Decomposition.build(
            UNIVERSE_3D, kind="tiles", n_chunks=4, axis=2
        )
        assert decomposition.axes == (2, 0)

    def test_out_of_range_axis_rejected_for_both_kinds(self):
        for kind in ("slabs", "tiles"):
            with pytest.raises(ValueError, match="out of range"):
                Decomposition.build(UNIVERSE_2D, kind=kind, n_chunks=2, axis=7)

    def test_picklable(self):
        decomposition = Decomposition.build(UNIVERSE_3D, kind="tiles", n_chunks=6)
        clone = pickle.loads(pickle.dumps(decomposition))
        assert clone.shape == decomposition.shape
        assert clone.bounds == decomposition.bounds
        assert [r.index for r in clone.regions] == [
            r.index for r in decomposition.regions
        ]


class TestEveryReferenceHasOneOwner:
    """Property: the ownership rule is a partition of the universe."""

    @pytest.mark.parametrize("kind,n_chunks", [("slabs", 5), ("tiles", 6)])
    def test_dense_probe_grid(self, kind, n_chunks):
        decomposition = Decomposition.build(UNIVERSE_2D, kind=kind, n_chunks=n_chunks)
        steps = 40
        for i in range(steps + 1):
            for j in range(steps + 1):
                point = MBR(
                    (10.0 * i / steps, 10.0 * j / steps),
                    (10.0 * i / steps, 10.0 * j / steps),
                )
                owners = sum(
                    decomposition.owns(region, point, point)
                    for region in decomposition.regions
                )
                assert owners == 1


def _nudge(value, direction):
    return float(np.nextafter(value, direction))


#: Coordinates that stress both rules on a [-0.0, 10] axis cut 4 ways
#: (edges 0, 2.5, 5, 7.5): every edge exactly and one ulp either side,
#: the closing universe bound and beyond it, and both signed zeros.
_VALUES = sorted(
    {
        -1.0, -0.0, 0.0, 1.25, 2.5, 3.0, 5.0, 7.5, 9.0, 10.0, 10.5,
        _nudge(2.5, -np.inf), _nudge(2.5, np.inf),
        _nudge(7.5, -np.inf), _nudge(10.0, np.inf),
    },
    key=lambda v: (v, str(v)),
)


def _corpus(dim, seed, n):
    """Boxes with corners from ``_VALUES``: zero-extent ones included,
    and every third oid repeated with a different box."""
    rng = np.random.default_rng(seed)
    values = np.array(_VALUES + [-0.0])
    objects = []
    for i in range(n):
        corners = rng.choice(values, size=(2, dim))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        if i % 5 == 0:
            hi = lo  # zero extent on every axis
        oid = i - (i % 3 == 2)  # oid i-1 appears twice
        objects.append(SpatialObject(oid, MBR(lo.tolist(), hi.tolist())))
    return objects


_DECOMPOSITIONS = [
    # (label, universe, kind, n_chunks, axis)
    ("slabs-1d", MBR((-0.0,), (10.0,)), "slabs", 4, 0),
    ("tiles-fall-back-1d", MBR((-0.0,), (10.0,)), "tiles", 3, 0),
    ("slabs-2d-axis1", MBR((0.0, -0.0), (7.0, 10.0)), "slabs", 4, 1),
    ("tiles-2d", MBR((-0.0, 0.0), (10.0, 10.0)), "tiles", 4, 0),
    ("tiles-2d-thirds", MBR((0.0, 0.0), (10.0, 10.0)), "tiles", 9, 0),
    ("tiles-3d-wrap", MBR((0.0, 0.0, -0.0), (10.0, 10.0, 10.0)), "tiles", 6, 2),
]


@pytest.mark.parametrize(
    "universe,kind,n_chunks,axis",
    [case[1:] for case in _DECOMPOSITIONS],
    ids=[case[0] for case in _DECOMPOSITIONS],
)
class TestArrayRulesMatchScalarOracles:
    """``member_rows``/``owner_indices``/``owned_pairs`` against
    ``Region.touches``/``owner_index``/``owns``, row by row and pair by
    pair."""

    def test_member_rows_match_touches(self, universe, kind, n_chunks, axis):
        decomposition = Decomposition.build(universe, kind, n_chunks, axis)
        objects = _corpus(universe.dim, seed=1, n=60)
        table = CoordinateTable.from_objects(objects)
        for columns in (
            AxisColumns.from_objects(objects, decomposition.axes),
            AxisColumns.from_table(table, decomposition.axes),
        ):
            for region in decomposition.regions:
                expected = [i for i, o in enumerate(objects) if region.touches(o.mbr)]
                assert decomposition.member_rows(region, columns).tolist() == expected

    def test_owner_indices_match_owner_index(self, universe, kind, n_chunks, axis):
        decomposition = Decomposition.build(universe, kind, n_chunks, axis)
        objects_a = _corpus(universe.dim, seed=3, n=40)
        objects_b = _corpus(universe.dim, seed=4, n=45)
        columns_a = AxisColumns.from_objects(objects_a, decomposition.axes)
        columns_b = AxisColumns.from_objects(objects_b, decomposition.axes)
        rows_a, rows_b = np.meshgrid(
            np.arange(len(objects_a)), np.arange(len(objects_b)), indexing="ij"
        )
        rows_a, rows_b = rows_a.ravel(), rows_b.ravel()
        owners = decomposition.owner_indices(
            columns_a.lo[rows_a], columns_b.lo[rows_b]
        )
        expected = [
            decomposition.owner_index(objects_a[i].mbr, objects_b[j].mbr)
            for i, j in zip(rows_a.tolist(), rows_b.tolist())
        ]
        assert owners.tolist() == expected

    def test_owned_pairs_match_owns_last_oid_wins(
        self, universe, kind, n_chunks, axis
    ):
        decomposition = Decomposition.build(universe, kind, n_chunks, axis)
        objects_a = _corpus(universe.dim, seed=5, n=30)
        objects_b = _corpus(universe.dim, seed=6, n=33)
        # The oracle's {oid: mbr} dicts keep each oid's last box.
        mbr_a = {o.oid: o.mbr for o in objects_a}
        mbr_b = {o.oid: o.mbr for o in objects_b}
        assert len(mbr_a) < len(objects_a) and len(mbr_b) < len(objects_b)
        pairs = [(a, b) for a in mbr_a for b in mbr_b][::-1]
        columns_a = AxisColumns.from_objects(objects_a, decomposition.axes)
        columns_b = AxisColumns.from_objects(objects_b, decomposition.axes)
        seen = []
        for region in decomposition.regions:
            owned = decomposition.owned_pairs(region, pairs, columns_a, columns_b)
            assert owned == [
                (a, b) for a, b in pairs
                if decomposition.owns(region, mbr_a[a], mbr_b[b])
            ]
            seen.extend(owned)
        assert sorted(seen) == sorted(pairs)  # every pair has one owner


class TestArrayRuleEdges:
    def test_owned_pairs_of_nothing(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2)
        empty = AxisColumns.from_objects([], decomposition.axes)
        assert decomposition.owned_pairs(decomposition.regions[0], [], empty, empty) == []

    def test_unknown_oid_raises_key_error(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2)
        objects = [SpatialObject(1, MBR((1.0, 1.0), (2.0, 2.0)))]
        columns = AxisColumns.from_objects(objects, decomposition.axes)
        with pytest.raises(KeyError):
            decomposition.owned_pairs(
                decomposition.regions[0], [(1, 2)], columns, columns
            )
        with pytest.raises(KeyError):
            decomposition.owned_pairs(
                decomposition.regions[0], [(0, 1)], columns, columns
            )

    def test_columns_of_other_axes_rejected(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        objects = [SpatialObject(1, MBR((1.0, 1.0), (2.0, 2.0)))]
        columns = AxisColumns.from_objects(objects, (1,))
        with pytest.raises(ValueError, match="axes"):
            decomposition.member_rows(decomposition.regions[0], columns)

    def test_unpartitioned_axes_are_never_read(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 5, axis=0)
        objects = [
            SpatialObject(0, MBR((0.0, 100.0), (1.0, 101.0))),
            SpatialObject(1, MBR((5.0, -3.0), (6.0, -2.0))),
        ]
        columns = AxisColumns.from_objects(objects, decomposition.axes)
        assert columns.lo.shape == (2, 1)
        assert decomposition.member_rows(decomposition.regions[0], columns).tolist() == [0]

    @pytest.mark.parametrize("kind,n_chunks,axis", [("slabs", 4, 1), ("tiles", 6, 0),
                                                    ("tiles", 5, 2)])
    def test_spanning_cuts_the_total_mbr_universe(self, kind, n_chunks, axis):
        objects_a = _corpus(3, seed=7, n=25)
        objects_b = _corpus(3, seed=8, n=20)
        universe = total_mbr(o.mbr for o in objects_a + objects_b)
        expected = Decomposition.build(universe, kind, n_chunks, axis)
        axes = Decomposition.partition_axes(kind, 3, axis)
        got = Decomposition.spanning(
            n_chunks,
            AxisColumns.from_objects(objects_a, axes),
            AxisColumns.from_objects(objects_b, axes),
        )
        assert (got.kind, got.axes, got.bounds) == (
            expected.kind, expected.axes, expected.bounds
        )
