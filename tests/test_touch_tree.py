"""TOUCH phase 1: the hierarchical data-oriented partitioning tree."""

import math
import random

import numpy as np
import pytest

from repro.core.tree import TouchNode, TouchTree
from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import box_object
from repro.rtree.str_pack import str_partition

OBJECTS = list(uniform_boxes(200, seed=81))


class TestConstruction:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            TouchTree([])

    def test_rejects_small_fanout(self):
        with pytest.raises(ValueError, match="fanout"):
            TouchTree(OBJECTS, fanout=1)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError, match="num_partitions"):
            TouchTree(OBJECTS, num_partitions=0)

    def test_rejects_bad_leaf_capacity(self):
        with pytest.raises(ValueError, match="leaf_capacity"):
            TouchTree(OBJECTS, leaf_capacity=0)

    def test_partition_count_determines_bucket_size(self):
        tree = TouchTree(OBJECTS, num_partitions=50)
        assert tree.leaf_capacity == math.ceil(200 / 50)

    def test_leaf_capacity_overrides_partitions(self):
        tree = TouchTree(OBJECTS, num_partitions=50, leaf_capacity=25)
        assert tree.leaf_capacity == 25

    def test_single_bucket_tree(self):
        tree = TouchTree(OBJECTS[:5], leaf_capacity=10)
        assert tree.height == 1
        assert tree.root.is_leaf
        assert len(tree.root.entities_a) == 5


class TestStructure:
    def test_all_objects_in_leaves_exactly_once(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        stored = sorted(o.oid for o in tree.root.iter_leaf_objects())
        assert stored == list(range(200))

    def test_leaf_buckets_bounded(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        for leaf in tree.leaves():
            assert 1 <= len(leaf.entities_a) <= tree.leaf_capacity

    def test_mbrs_enclose_children(self):
        tree = TouchTree(OBJECTS, num_partitions=32, fanout=3)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for obj in node.entities_a:
                    assert node.mbr.contains(obj.mbr)
            else:
                for child in node.children:
                    assert node.mbr.contains(child.mbr)

    def test_fanout_respected(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert len(node.children) <= 2

    def test_smaller_fanout_taller_tree(self):
        """§5.2.1: the smaller the fanout, the higher the tree."""
        tall = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        flat = TouchTree(OBJECTS, num_partitions=64, fanout=16)
        assert tall.height > flat.height

    def test_levels_consistent(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        for node in tree.iter_nodes():
            for child in node.children:
                assert child.level == node.level - 1
        assert all(leaf.level == 0 for leaf in tree.leaves())

    def test_entities_b_start_empty(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        assert tree.assigned_b_count() == 0
        assert all(node.entities_b == [] for node in tree.iter_nodes())

    def test_str_buckets_are_tight_on_clustered_data(self):
        clustered = list(clustered_boxes(300, seed=82, n_clusters=5, cluster_sigma=20.0))
        tree = TouchTree(clustered, num_partitions=30)
        universe_volume = 1000.0**3
        total_leaf_volume = sum(leaf.mbr.volume() for leaf in tree.leaves())
        # STR buckets on 5 tight clusters must cover a small fraction of
        # the universe (slab cuts can still produce a few long slivers).
        assert total_leaf_volume < universe_volume / 5


class TestAccounting:
    def test_memory_includes_b_assignments(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        before = tree.memory_bytes()
        tree.root.entities_b.append(box_object(0, (0, 0, 0), (1, 1, 1)))
        assert tree.memory_bytes() > before

    def test_node_count_and_height(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        assert tree.node_count() >= 64
        assert tree.height >= 7  # 64 leaves, fanout 2

    def test_repr(self):
        node = TouchNode(MBR((0, 0), (1, 1)), level=0)
        assert "level=0" in repr(node)


def _seeded_corpus(n, dim, seed):
    """Boxes on a coarse lattice, so many share a centre coordinate, plus
    exact duplicates of the first few (tied centres in every axis)."""
    rng = random.Random(seed)
    objects = []
    for oid in range(n):
        lo = [float(rng.randrange(40)) for _ in range(dim)]
        hi = [c + rng.choice((0.0, 0.5, 1.0, 3.0)) for c in lo]
        objects.append(box_object(oid, lo, hi))
    objects += [box_object(n + k, o.mbr.lo, o.mbr.hi) for k, o in enumerate(objects[:9])]
    return objects


def _reference_tree(objects, fanout, leaf_capacity, dim):
    """The object-model build: STR over ``MBR.center`` and ``total_mbr``."""
    buckets = str_partition(
        objects, leaf_capacity, center_of=lambda o: o.mbr.center(), dim=dim
    )
    nodes = [
        TouchNode(total_mbr(o.mbr for o in bucket), level=0, entities_a=bucket)
        for bucket in buckets
    ]
    level = 0
    while len(nodes) > 1:
        level += 1
        groups = str_partition(
            nodes, fanout, center_of=lambda node: node.mbr.center(), dim=dim
        )
        nodes = [
            TouchNode(total_mbr(n.mbr for n in group), level=level, children=group)
            for group in groups
        ]
    return nodes[0]


def _shape(node):
    """Level, MBR and bucket oids of every node, children in order."""
    return (
        node.level,
        node.mbr,
        [o.oid for o in node.entities_a],
        [_shape(child) for child in node.children],
    )


class TestArrayBuildIdentity:
    """The array build is the object-model build, node for node."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fanout", [2, 3, 16])
    @pytest.mark.parametrize(
        "num_partitions, leaf_capacity", [(16, None), (None, None), (1024, 1)]
    )
    def test_equals_reference(self, dim, fanout, num_partitions, leaf_capacity):
        objects = _seeded_corpus(150, dim, seed=dim * 100 + fanout)
        tree = TouchTree(
            objects,
            fanout=fanout,
            num_partitions=num_partitions,
            leaf_capacity=leaf_capacity,
        )
        reference = _reference_tree(objects, fanout, tree.leaf_capacity, dim)
        assert _shape(tree.root) == _shape(reference)

    def test_all_centres_tied(self):
        objects = [box_object(oid, (1.0, 2.0), (3.0, 4.0)) for oid in range(40)]
        tree = TouchTree(objects, fanout=3, leaf_capacity=4)
        assert _shape(tree.root) == _shape(_reference_tree(objects, 3, 4, 2))

    def test_bounds_reuse_member_floats(self):
        # Node bounds are the members' own coordinates, bit for bit
        # (signed zeros included), exactly as total_mbr picks them.
        objects = [
            box_object(0, (-0.0, 1.0), (2.0, 3.0)),
            box_object(1, (0.0, 1.0), (2.0, 3.0)),
        ]
        tree = TouchTree(objects, leaf_capacity=2)
        assert tree.root.mbr.lo[0] is objects[0].mbr.lo[0]

    @pytest.mark.parametrize("fanout", [2, 5])
    def test_leaf_rows_lay_out_leaves_contiguously(self, fanout):
        objects = _seeded_corpus(120, 3, seed=7)
        table = CoordinateTable.from_objects(objects)
        tree, leaf_rows = TouchTree.build(
            objects, table, fanout=fanout, num_partitions=20
        )
        leaf_oids = [o.oid for leaf in tree.leaves() for o in leaf.entities_a]
        assert table.take(leaf_rows).ids.tolist() == leaf_oids
        assert sorted(leaf_rows.tolist()) == list(range(len(objects)))

    def test_tree_keeps_no_arrays(self):
        tree, _ = TouchTree.build(OBJECTS, num_partitions=32)
        held = list(vars(tree).values())
        for node in tree.iter_nodes():
            held += [getattr(node, slot) for slot in TouchNode.__slots__]
        assert not any(isinstance(v, (np.ndarray, CoordinateTable)) for v in held)
