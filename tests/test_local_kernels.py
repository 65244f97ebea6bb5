"""Unit tests for the shared local-join kernels."""

import random

import pytest

from repro.datasets.synthetic import uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject, box_object
from repro.joins.local import (
    LOCAL_KERNELS,
    average_side_length,
    grid_kernel,
    grid_kernel_columnar,
    nested_loop_kernel,
    plane_sweep_kernel,
)
from repro.stats.counters import JoinStatistics
from repro.validation import brute_force_pairs


def run_kernel(kernel, objs_a, objs_b, **kwargs):
    stats = JoinStatistics()
    pairs = []
    kernel(objs_a, objs_b, stats, lambda a, b: pairs.append((a.oid, b.oid)), **kwargs)
    return pairs, stats


DATA_A = list(uniform_boxes(60, seed=21, side_range=(0.0, 80.0)))
DATA_B = list(uniform_boxes(150, seed=22, side_range=(0.0, 80.0)))
TRUTH = brute_force_pairs(DATA_A, DATA_B)


@pytest.mark.parametrize("name", sorted(LOCAL_KERNELS))
class TestKernelContract:
    def test_exact_result(self, name):
        pairs, _ = run_kernel(LOCAL_KERNELS[name], DATA_A, DATA_B)
        assert set(pairs) == TRUTH

    def test_no_duplicates(self, name):
        pairs, _ = run_kernel(LOCAL_KERNELS[name], DATA_A, DATA_B)
        assert len(pairs) == len(set(pairs))

    def test_empty_inputs(self, name):
        pairs, stats = run_kernel(LOCAL_KERNELS[name], [], DATA_B)
        assert pairs == [] and stats.comparisons == 0
        pairs, stats = run_kernel(LOCAL_KERNELS[name], DATA_A, [])
        assert pairs == [] and stats.comparisons == 0


class TestNestedLoop:
    def test_comparison_count_is_product(self):
        _, stats = run_kernel(nested_loop_kernel, DATA_A, DATA_B)
        assert stats.comparisons == len(DATA_A) * len(DATA_B)


class TestPlaneSweep:
    def test_fewer_comparisons_than_nested(self):
        _, sweep_stats = run_kernel(plane_sweep_kernel, DATA_A, DATA_B)
        assert sweep_stats.comparisons < len(DATA_A) * len(DATA_B)

    def test_presorted_path(self):
        sorted_a = sorted(DATA_A, key=lambda o: o.mbr.lo[0])
        sorted_b = sorted(DATA_B, key=lambda o: o.mbr.lo[0])
        pairs, _ = run_kernel(plane_sweep_kernel, sorted_a, sorted_b, presorted=True)
        assert set(pairs) == TRUTH

    def test_identical_sort_keys(self):
        a = [SpatialObject(i, MBR((0.0, i), (1.0, i + 0.5))) for i in range(5)]
        b = [SpatialObject(i, MBR((0.0, i + 0.25), (1.0, i + 0.3))) for i in range(5)]
        pairs, _ = run_kernel(plane_sweep_kernel, a, b)
        assert set(pairs) == brute_force_pairs(a, b)


class TestGridKernel:
    def test_counts_duplicates_suppressed(self):
        _, stats = run_kernel(grid_kernel, DATA_A, DATA_B, cell_size_factor=1.0)
        # With cells comparable to objects, pairs span cells; the
        # reference-point rule must have suppressed the extra sightings.
        assert stats.duplicates_suppressed >= 0
        assert stats.comparisons > 0

    def test_degenerate_point_objects_fall_back(self):
        points_a = [box_object(i, (i, i), (i, i)) for i in range(5)]
        points_b = [box_object(i, (i, i), (i, i)) for i in range(5)]
        pairs, stats = run_kernel(grid_kernel, points_a, points_b)
        assert set(pairs) == {(i, i) for i in range(5)}
        assert stats.comparisons == 25  # nested-loop fallback

    def test_explicit_universe(self):
        universe = MBR((0.0, 0.0, 0.0), (1000.0, 1000.0, 1000.0))
        pairs, _ = run_kernel(grid_kernel, DATA_A, DATA_B, universe=universe)
        assert set(pairs) == TRUTH

    def test_max_cells_cap_respected(self):
        _, stats = run_kernel(
            grid_kernel, DATA_A, DATA_B, cell_size_factor=0.001, max_cells_per_dim=4
        )
        # The cap keeps the grid coarse: replication stays bounded.
        assert stats.replicated_entries < len(DATA_B) * 4**3

    def test_records_peak_grid_bytes(self):
        _, stats = run_kernel(grid_kernel, DATA_A, DATA_B)
        assert stats.extra.get("local_grid_peak_bytes", 0) > 0


class TestAverageSideLength:
    def test_empty(self):
        assert average_side_length([]) == 0.0

    def test_unit_boxes(self):
        objs = [box_object(i, (0, 0), (1, 1)) for i in range(3)]
        assert average_side_length(objs) == 1.0

    def test_mixed_sides(self):
        objs = [box_object(0, (0, 0), (2, 4))]
        assert average_side_length(objs) == 3.0


def _run_both(objs_a, objs_b, **kwargs):
    """Object grid kernel and columnar grid kernel on the same input."""
    pairs, stats = run_kernel(grid_kernel, objs_a, objs_b, **kwargs)
    col_stats = JoinStatistics()
    table_a = CoordinateTable.from_objects(objs_a)
    table_b = CoordinateTable.from_objects(objs_b)
    hit_a, hit_b = grid_kernel_columnar(table_a, table_b, col_stats, **kwargs)
    col_pairs = list(
        zip(table_a.ids[hit_a].tolist(), table_b.ids[hit_b].tolist())
    )
    return (pairs, stats), (col_pairs, col_stats)


def _seeded_boxes(n, seed, origin, extent, side):
    rng = random.Random(seed)
    boxes = []
    for oid in range(n):
        lo = [o + rng.uniform(0.0, e) for o, e in zip(origin, extent)]
        hi = [c + rng.uniform(0.0, side) for c in lo]
        boxes.append(box_object(oid, lo, hi))
    return boxes


# A spans [0, 100]^2; B sits in one corner cell, in one slab, partly
# outside A's extent, or is zero-extent (points or flat boxes).
A_WIDE = _seeded_boxes(80, 31, (0.0, 0.0), (90.0, 90.0), 10.0)
CLIP_CASES = {
    "corner_cell": _seeded_boxes(30, 32, (0.0, 0.0), (0.3, 0.3), 0.2),
    "one_slab": _seeded_boxes(40, 33, (40.0, 0.0), (0.5, 95.0), 0.4),
    "partly_outside": _seeded_boxes(60, 34, (70.0, 70.0), (60.0, 60.0), 1.0),
    "points": [box_object(i, (p, q), (p, q)) for i, (p, q) in
               enumerate((x * 7.3 % 100.0, x * 3.1 % 100.0) for x in range(50))],
    "flat": [box_object(i, (i * 2.0, 50.0), (i * 2.0 + 1.5, 50.0)) for i in range(45)],
}


@pytest.mark.parametrize("case", sorted(CLIP_CASES))
@pytest.mark.parametrize("cell_size_factor", [1.0, 4.0])
def test_columnar_grid_clip_matches_object_kernel(case, cell_size_factor):
    objs_b = CLIP_CASES[case]
    (pairs, stats), (col_pairs, col_stats) = _run_both(
        A_WIDE, objs_b, cell_size_factor=cell_size_factor
    )
    assert col_pairs == pairs
    assert set(pairs) == brute_force_pairs(A_WIDE, objs_b)
    for counter in (
        "comparisons",
        "duplicates_suppressed",
        "dedup_checks",
        "replicated_entries",
    ):
        assert getattr(col_stats, counter) == getattr(stats, counter), counter


def test_columnar_grid_clip_zero_extent_a():
    points_a = CLIP_CASES["points"]
    (pairs, stats), (col_pairs, col_stats) = _run_both(points_a, A_WIDE)
    assert col_pairs == pairs
    assert col_stats.comparisons == stats.comparisons
    assert col_stats.dedup_checks == stats.dedup_checks
