"""Filter–refine pipeline: oracle parity, counters, CLI, engine modes.

The load-bearing contract of the geometry tier: for every registry
algorithm and every backend, the MBR filter stage followed by
:class:`~repro.refine.RefinePipeline` returns exactly the pair set of
the brute-force exact-predicate oracle, and the refine counters satisfy
``true_hits + exact_tests == candidate_pairs - false_hit_prunes``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.config import RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.synthetic import clustered_linestrings, clustered_polygons
from repro.geometry.columnar import BACKENDS
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import LineString, Point, Polygon
from repro.geometry.vertex_table import shape_of
from repro.joins.registry import available, make_algorithm
from repro.refine import MissingShapesError, RefinePipeline
from repro.stats.counters import JoinStatistics
from repro.validation import brute_force_exact_pairs, brute_force_pairs

EPSILON = 3.0


def shaped_pair(n_a=40, n_b=60):
    a = list(clustered_polygons(n_a, seed=21))
    b = list(clustered_linestrings(n_b, seed=22))
    return a, b


def filter_refine(algorithm, objects_a, objects_b, epsilon, backend="auto"):
    """The full two-stage join: MBR filter, then exact refinement.

    Shapes attach *before* inflation, like the production path in
    ``run_algorithm``: an MBR-only build object must refine as a box of
    its original extent, not of the ε-inflated one (which would count ε
    twice and admit pairs up to 2ε apart).
    """
    overrides = {"backend": backend} if backend else {}
    shaped = [
        obj if obj.geometry is not None
        else SpatialObject(obj.oid, obj.mbr, shape_of(obj))
        for obj in objects_a
    ]
    build = [obj.inflated(epsilon) for obj in shaped]
    result = make_algorithm(algorithm, **overrides).join(build, list(objects_b))
    stats = JoinStatistics()
    refined = RefinePipeline(epsilon, backend=backend).refine(
        result.pairs, build, objects_b, stats=stats
    )
    return refined, stats


def assert_counter_identity(stats):
    assert (
        stats.true_hits + stats.exact_tests
        == stats.candidate_pairs - stats.false_hit_prunes
    )
    assert stats.refined_pairs <= stats.candidate_pairs


class TestOracleParityEveryAlgorithmAndBackend:
    @pytest.mark.parametrize("algorithm", [info.name for info in available()])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_brute_force_oracle(self, algorithm, backend):
        objects_a, objects_b = shaped_pair()
        oracle = brute_force_exact_pairs(objects_a, objects_b, EPSILON)
        refined, stats = filter_refine(
            algorithm, objects_a, objects_b, EPSILON, backend
        )
        assert set(refined) == oracle
        assert_counter_identity(stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_epsilon_zero_is_exact_intersection(self, backend):
        objects_a, objects_b = shaped_pair()
        oracle = brute_force_exact_pairs(objects_a, objects_b, 0.0)
        refined, stats = filter_refine(
            "TOUCH", objects_a, objects_b, 0.0, backend
        )
        assert set(refined) == oracle
        assert_counter_identity(stats)

    def test_backends_agree_pair_for_pair(self):
        objects_a, objects_b = shaped_pair()
        results = [
            filter_refine("TOUCH", objects_a, objects_b, EPSILON, backend)[0]
            for backend in BACKENDS
        ]
        for other in results[1:]:
            assert other == results[0]


class TestAdversarialGeometry:
    def test_mbr_only_build_object_near_threshold(self):
        # Regression (hypothesis-found): the box fallback for an
        # MBR-only build object must come from its *original* MBR, not
        # the ε-inflated copy the filter index was built from — the
        # inflated fallback counts ε twice and admits pairs up to 2ε
        # apart.  Two point-boxes sqrt(26) ≈ 5.099 apart at ε = 5.
        from repro.geometry.mbr import MBR

        a = SpatialObject(0, MBR((0.0, 30.0), (0.0, 30.0)))
        b = SpatialObject(0, MBR((1.0, 25.0), (1.0, 25.0)))
        assert brute_force_exact_pairs([a], [b], 5.0) == set()
        for backend in BACKENDS:
            refined, stats = filter_refine("INL", [a], [b], 5.0, backend)
            assert refined == []
            assert_counter_identity(stats)

    def test_mbr_overlap_but_shapes_far(self):
        # Two diagonal hairpins: MBRs coincide, shapes sit in opposite
        # corners > epsilon apart — the classic false hit the filter
        # stage cannot see and the refine stage must kill.
        a = LineString([(0.0, 0.0), (1.0, 1.0)], oid=0)
        b = LineString([(0.0, 10.0), (1.0, 9.0)], oid=0)
        box = a.mbr().union(b.mbr())
        obj_a = SpatialObject(0, box, a)
        obj_b = SpatialObject(0, box, b)
        refined, stats = filter_refine("NL", [obj_a], [obj_b], 1.0)
        assert refined == []
        assert stats.candidate_pairs == 1
        assert brute_force_exact_pairs([obj_a], [obj_b], 1.0) == set()

    def test_touching_mbrs_disjoint_shapes_at_epsilon_zero(self):
        a = Polygon([(0, 0), (2, 0), (0, 2)], oid=0)  # lower-left triangle
        b = Polygon([(2, 2), (0.1, 2), (2, 0.1)], oid=1)  # upper-right
        obj_a = SpatialObject(0, a.mbr(), a)
        obj_b = SpatialObject(1, b.mbr(), b)
        assert obj_a.mbr.intersects(obj_b.mbr)
        refined, _ = filter_refine("NL", [obj_a], [obj_b], 0.0)
        assert refined == []

    def test_true_hit_shortcut_counts(self):
        # Overlapping solid squares: the interior rectangles already
        # touch, so the pair must resolve without an exact test.
        a = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)], oid=0)
        b = Polygon([(1, 1), (5, 1), (5, 5), (1, 5)], oid=0)
        obj_a = SpatialObject(0, a.mbr(), a)
        obj_b = SpatialObject(0, b.mbr(), b)
        refined, stats = filter_refine("NL", [obj_a], [obj_b], 1.0)
        assert refined == [(0, 0)]
        assert stats.true_hits == 1
        assert stats.exact_tests == 0


coordinate = st.floats(
    min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def shaped_object(draw, oid):
    kind = draw(st.sampled_from(("point", "linestring", "polygon", "mbr")))
    if kind == "point":
        shape = Point([(draw(coordinate), draw(coordinate))], oid=oid)
    elif kind == "linestring":
        x, y = draw(coordinate), draw(coordinate)
        steps = draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
                    st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
                ),
                min_size=1,
                max_size=4,
            )
        )
        verts = [(x, y)]
        for dx, dy in steps:
            x, y = x + dx, y + dy
            verts.append((x, y))
        verts.append((max(px for px, _ in verts) + 0.5, verts[0][1]))
        shape = LineString(verts, oid=oid)
    elif kind == "polygon":
        import math as _math

        cx, cy = draw(coordinate), draw(coordinate)
        n = draw(st.integers(min_value=3, max_value=6))
        radii = [
            draw(st.floats(min_value=0.5, max_value=6.0, allow_nan=False, width=32))
            for _ in range(n)
        ]
        shape = Polygon(
            [
                (
                    cx + r * _math.cos(2 * _math.pi * i / n),
                    cy + r * _math.sin(2 * _math.pi * i / n),
                )
                for i, r in enumerate(radii)
            ],
            oid=oid,
        )
    else:
        x, y = draw(coordinate), draw(coordinate)
        w = draw(st.floats(min_value=0, max_value=6, allow_nan=False, width=32))
        h = draw(st.floats(min_value=0, max_value=6, allow_nan=False, width=32))
        from repro.geometry.mbr import MBR

        return SpatialObject(oid, MBR((x, y), (x + w, y + h)))
    return SpatialObject(oid, shape.mbr(), shape)


@st.composite
def shaped_sets(draw):
    n_a = draw(st.integers(min_value=0, max_value=8))
    n_b = draw(st.integers(min_value=0, max_value=8))
    return (
        [draw(shaped_object(i)) for i in range(n_a)],
        [draw(shaped_object(i)) for i in range(n_b)],
    )


class TestPropertyOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        data=shaped_sets(),
        epsilon=st.sampled_from((0.0, 1.0, 5.0)),
        algorithm=st.sampled_from(sorted(info.name for info in available())),
        backend=st.sampled_from(BACKENDS),
    )
    def test_pipeline_equals_oracle(self, data, epsilon, algorithm, backend):
        objects_a, objects_b = data
        oracle = brute_force_exact_pairs(objects_a, objects_b, epsilon)
        refined, stats = filter_refine(
            algorithm, objects_a, objects_b, epsilon, backend
        )
        assert set(refined) == oracle
        assert_counter_identity(stats)
        # Soundness of the stages separately: refined ⊆ MBR candidates.
        candidates = brute_force_pairs(
            [obj.inflated(epsilon) for obj in objects_a], objects_b
        )
        assert set(refined) <= candidates


EXACT = RunOptions(geometry="exact")


class TestRunnerIntegration:
    def test_exact_record_counters(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        record = run_algorithm("TOUCH", polys, lines, EPSILON, options=EXACT)
        extra = record.extra
        assert extra["geometry"] == "exact"
        assert (
            extra["true_hits"] + extra["exact_tests"]
            == extra["candidate_pairs"] - extra["false_hit_prunes"]
        )
        oracle = brute_force_exact_pairs(list(polys), list(lines), EPSILON)
        assert record.result_pairs == len(oracle)

    def test_mbr_mode_records_unchanged(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        record = run_algorithm("TOUCH", polys, lines, EPSILON)
        for key in (
            "geometry",
            "candidate_pairs",
            "true_hits",
            "exact_tests",
            "false_hit_prunes",
            "refine_seconds",
        ):
            assert key not in record.extra

    def test_exact_requires_shapes(self):
        from repro.datasets.synthetic import uniform_boxes

        boxes_a = uniform_boxes(20, seed=41)
        boxes_b = uniform_boxes(20, seed=42)
        with pytest.raises(MissingShapesError, match=boxes_a.name):
            run_algorithm("TOUCH", boxes_a, boxes_b, EPSILON, options=EXACT)

    def test_workers_exact_matches_sequential(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        sequential = run_algorithm("TOUCH", polys, lines, EPSILON, options=EXACT)
        parallel = run_algorithm(
            "TOUCH", polys, lines, EPSILON,
            options=RunOptions(workers=2, geometry="exact"),
        )
        assert parallel.result_pairs == sequential.result_pairs
        for key in ("candidate_pairs", "true_hits", "exact_tests"):
            assert parallel.extra[key] == sequential.extra[key]


class TestPipelineValidation:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            RefinePipeline(-1.0)

    def test_rejects_infinite_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            RefinePipeline(float("inf"))

    def test_empty_candidates(self):
        stats = JoinStatistics()
        assert RefinePipeline(1.0).refine([], [], [], stats=stats) == []
        assert stats.candidate_pairs == 0

    def test_mbr_only_objects_refine_as_boxes(self):
        from repro.geometry.mbr import MBR

        a = SpatialObject(0, MBR((0, 0), (1, 1)))
        b = SpatialObject(0, MBR((3, 0), (4, 1)))
        pipeline = RefinePipeline(1.0)
        assert pipeline.refine([(0, 0)], [a], [b]) == []
        assert RefinePipeline(2.0).refine([(0, 0)], [a], [b]) == [(0, 0)]
        assert shape_of(a).vertices == ((0.0, 0.0), (1.0, 1.0))


class TestCliExitCodes:
    def test_run_exact_without_shapes_exits_2(self, capsys):
        from repro.bench.cli import main

        assert main(["run", "fig9", "--scale", "smoke", "--geometry", "exact"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "uniform" in err
        assert "shape payloads" in err

    def test_run_filter_refine_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["run", "filter_refine", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "filter" in out.lower()
