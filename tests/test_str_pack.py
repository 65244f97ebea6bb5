"""Unit tests for Sort-Tile-Recursive packing."""

import math

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_boxes
from repro.rtree.str_pack import slices_of, str_partition, str_tile


def centers(obj):
    return obj.mbr.center()


class TestSlices:
    def test_even_split(self):
        assert slices_of([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_uneven_split(self):
        assert slices_of([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            slices_of([1], 0)

    def test_empty(self):
        assert slices_of([], 3) == []


class TestStrPartition:
    def test_empty_input(self):
        assert str_partition([], 4, centers, dim=2) == []

    def test_single_group_when_under_capacity(self):
        objs = list(uniform_boxes(3, seed=1))
        groups = str_partition(objs, 10, centers, dim=3)
        assert len(groups) == 1
        assert sorted(o.oid for o in groups[0]) == [0, 1, 2]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match=">= 1"):
            str_partition([1], 0, lambda x: (0,), dim=1)

    def test_partition_sizes_bounded_by_capacity(self):
        objs = list(uniform_boxes(137, seed=2))
        groups = str_partition(objs, 8, centers, dim=3)
        assert all(1 <= len(g) <= 8 for g in groups)

    def test_every_object_in_exactly_one_group(self):
        objs = list(uniform_boxes(100, seed=3))
        groups = str_partition(objs, 7, centers, dim=3)
        seen = [o.oid for g in groups for o in g]
        assert sorted(seen) == list(range(100))

    def test_group_count_near_optimal(self):
        objs = list(uniform_boxes(128, seed=4))
        groups = str_partition(objs, 8, centers, dim=3)
        # STR may create slightly more groups than ceil(n / c) due to
        # slab rounding, but never more than one extra per slab level.
        assert math.ceil(128 / 8) <= len(groups) <= 2 * math.ceil(128 / 8)

    def test_spatial_coherence_beats_random_grouping(self):
        """STR groups must be far tighter than arbitrary groups."""
        from repro.geometry.mbr import total_mbr

        objs = list(uniform_boxes(200, seed=5))
        groups = str_partition(objs, 10, centers, dim=3)
        str_volume = sum(total_mbr(o.mbr for o in g).volume() for g in groups)
        arbitrary = [objs[i : i + 10] for i in range(0, 200, 10)]
        arbitrary_volume = sum(total_mbr(o.mbr for o in g).volume() for g in arbitrary)
        assert str_volume < arbitrary_volume / 10

    def test_works_in_2d(self):
        objs = list(uniform_boxes(60, seed=6, dim=2))
        groups = str_partition(objs, 6, centers, dim=2)
        assert sorted(o.oid for g in groups for o in g) == list(range(60))

    def test_works_in_1d(self):
        objs = list(uniform_boxes(20, seed=7, dim=1))
        groups = str_partition(objs, 4, centers, dim=1)
        assert len(groups) == 5
        # 1D STR is a plain sorted chop: group ranges must not interleave.
        bounds = [
            (min(o.mbr.lo[0] for o in g), max(o.mbr.lo[0] for o in g)) for g in groups
        ]
        bounds.sort()
        for (_, prev_hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert prev_hi <= next_lo

    def test_duplicate_centers(self):
        from repro.geometry.mbr import MBR
        from repro.geometry.objects import SpatialObject

        objs = [SpatialObject(i, MBR((1.0, 1.0), (2.0, 2.0))) for i in range(10)]
        groups = str_partition(objs, 3, centers, dim=2)
        assert sorted(o.oid for g in groups for o in g) == list(range(10))


class TestStrTile:
    @pytest.mark.parametrize("capacity", [1, 4, 7, 500])
    def test_groups_equal_str_partition(self, capacity):
        objects = list(uniform_boxes(300, seed=93))
        expected = [
            [o.oid for o in group]
            for group in str_partition(objects, capacity, centers, dim=3)
        ]
        order, bounds = str_tile(np.array([centers(o) for o in objects]), capacity)
        rows = order.tolist()
        got = [rows[b:e] for b, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        assert got == expected  # oids are 0..n-1, i.e. row numbers

    def test_empty_and_bad_capacity(self):
        order, bounds = str_tile(np.empty((0, 2)), 3)
        assert len(order) == 0 and bounds.tolist() == [0]
        with pytest.raises(ValueError, match=">= 1"):
            str_tile(np.zeros((2, 2)), 0)
