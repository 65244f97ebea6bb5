"""Smoke-size tests of the benchmark itself: statistics, spans, checks, runs."""

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, run, workloads
from perfbench.oracle import box_join_pairs, pair_mismatch, shapes_intersect
from perfbench.spans import Span, Tracer, covered, self_time
from perfbench.summary import median, percentile, percentile_allowed, quartile_spread


# -- percentiles and the sample-count rule --------------------------------
class TestPercentiles:
    def test_p90_needs_100_samples(self):
        assert not percentile_allowed(99, 90)
        assert percentile_allowed(100, 90)
        with pytest.raises(ValueError, match="p90 needs at least 100 samples, got 99"):
            percentile(list(range(99)), 90)

    def test_p99_needs_1000_samples(self):
        assert not percentile_allowed(999, 99)
        assert percentile_allowed(1000, 99)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 90) == 90
        assert percentile(list(reversed(values)), 90) == 90
        assert percentile(values, 50) == 50
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_refuses_no_samples(self):
        with pytest.raises(ValueError):
            median([])

    def test_quartile_spread(self):
        assert quartile_spread([10.0] * 10) == 0.0
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = 92.5, 100.0, 107.5
        assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- self-time arithmetic --------------------------------------------------
class TestSelfTime:
    def test_overlapping_and_overhanging_children(self):
        parent = Span(0, "p", None, 1, start=0.0, duration=10.0)
        children = [
            Span(1, "a", 0, 1, start=1.0, duration=2.0),  # [1, 3]
            Span(2, "b", 0, 1, start=2.0, duration=3.0),  # [2, 5] overlaps a
            Span(3, "c", 0, 1, start=8.0, duration=4.0),  # [8, 12] overhangs
        ]
        assert covered(0.0, 10.0, [(c.start, c.end) for c in children]) == 6.0
        assert self_time(parent, children) == 4.0

    def test_no_children(self):
        parent = Span(0, "p", None, 1, start=5.0, duration=2.5)
        assert self_time(parent, []) == 2.5

    def test_derived_children_give_unattributed_residue(self):
        tracer = Tracer()
        op = tracer.new_op()
        with tracer.span("op.join", op) as root:
            pass
        root.duration = 1.0  # pin the wall clock
        tracer.derived(root, [("build", 0.25), ("assign", 0.125), ("join", 0.5)])
        assert tracer.self_time(root) == pytest.approx(0.125)
        # children never extend past the parent
        tracer.derived(root, [("late", 5.0)])
        assert tracer.self_time(root) == pytest.approx(0.0)

    def test_nested_spans_record_parent_and_op(self):
        tracer = Tracer()
        op = tracer.new_op()
        with tracer.span("outer", op) as outer:
            with tracer.span("inner", op) as inner:
                pass
        assert inner.parent == outer.id and outer.parent is None
        assert {s.op for s in tracer.spans} == {op}
        assert tracer.self_time(outer) == pytest.approx(outer.duration - inner.duration)

    def test_disabled_tracer_times_but_keeps_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            pass
        assert span.duration >= 0.0 and tracer.spans == []

    def test_dump_writes_every_span(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x", tracer.new_op()):
            pass
        tracer.dump(tmp_path / "spans.json")
        (span,) = json.loads((tmp_path / "spans.json").read_text())
        assert set(span) == {"id", "name", "parent", "op", "start", "duration", "counters"}


# -- reference answers and the correctness check ----------------------------
def _boxes(seed, n):
    return inputs.uniform_box_arrays(np.random.default_rng(seed), n, 20.0)


class TestChecks:
    def test_oracle_matches_the_program(self):
        from repro.bench.runner import run_algorithm
        from perfbench.tap import PairTap

        a_lo, a_hi = _boxes(1, 150)
        b_lo, b_hi = _boxes(2, 300)
        a = inputs.boxes_dataset(a_lo, a_hi, "a", 20.0)
        b = inputs.boxes_dataset(b_lo, b_hi, "b", 20.0)
        expected = box_join_pairs(a_lo, a_hi, b_lo, b_hi, 1.0)
        assert expected
        with PairTap() as tap:
            record = run_algorithm("TOUCH", a, b, 1.0)
            pairs, _ = tap.take()
        assert set(pairs) == expected and record.result_pairs == len(expected)

    def test_mismatch_names_missing_and_extra(self):
        expected = {(1, 2), (3, 4)}
        assert pair_mismatch([(1, 2), (3, 4)], expected) is None
        assert pair_mismatch([(1, 2)], expected).startswith("1 missing, 0 extra")
        assert pair_mismatch([(1, 2), (3, 4), (5, 6)], expected).startswith("0 missing, 1 extra")

    def test_duplicates_and_wrong_counts_are_flagged(self):
        expected = {(1, 2)}
        assert "duplicate" in workloads._check_pairs(expected, [(1, 2), (1, 2)])
        assert "reported 2 pairs" in workloads._check_pairs(expected, [(1, 2)], count=2)
        assert workloads._check_pairs(expected, None) == "no pair list captured"

    def test_orientation_oracle(self):
        square = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        assert shapes_intersect("polygon", square, "linestring", [(1.0, 1.0), (1.5, 1.5)])
        assert shapes_intersect("linestring", [(-1.0, 1.0), (3.0, 1.0)], "polygon", square)
        assert shapes_intersect("linestring", [(2.0, 2.0), (3.0, 3.0)], "polygon", square)
        assert not shapes_intersect("linestring", [(3.0, 0.0), (3.0, 2.0)], "polygon", square)
        # collinear overlap without a proper crossing
        assert shapes_intersect("linestring", [(0.0, 0.0), (2.0, 0.0)],
                                "linestring", [(1.0, 0.0), (3.0, 0.0)])
        # the crossing a distance test misses (ROADMAP item 1's example)
        tri = [(1.0, 0.0), (-1.0, 3 ** 0.5), (-1.0, -(3 ** 0.5))]
        assert shapes_intersect("polygon", tri, "linestring", [(-2.0, 0.0), (0.0, 0.0)])


# -- smoke-size runs of every workload --------------------------------------
SMALL = {
    "join_uniform": {"N_A": 200, "N_B": 400, "inputs": 2},
    "probe_local": {"N_A": 300, "N_B": 900, "inputs": 4, "BATCH_SIZE": 20},
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    monkeypatch.setattr(workloads.ShapeJoins, "N_A", 40)
    monkeypatch.setattr(workloads.ShapeJoins, "N_B", 160)

    def make(name):
        cls = workloads.WORKLOADS[name]
        for attr, value in SMALL[name].items():
            monkeypatch.setattr(cls, attr, value)
        return cls(seed=3)

    return make


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(small, name, trace):
    workload = small(name)
    outcome = run.measure(workload, seconds=0.0, trace=trace)
    line = run.result_line(workload, outcome)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = workloads.LAYER_METRICS if trace else run.END_TO_END
    assert set(line["metrics"]) == set(wanted)
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)


def test_dropped_pair_is_counted_not_fatal(small, monkeypatch):
    """A pair lost inside the program fails every operation it touches."""
    from repro.joins.base import SpatialJoinAlgorithm

    original = SpatialJoinAlgorithm.join

    def lossy(algorithm, dataset_a, dataset_b):
        result = original(algorithm, dataset_a, dataset_b)
        first = next(iter(dataset_a), None)
        if first is not None and first.geometry is None:  # the box joins only
            result.pairs = result.pairs[1:]
            result.stats.result_pairs = len(result.pairs)
        return result

    monkeypatch.setattr(SpatialJoinAlgorithm, "join", lossy)
    workload = small("join_uniform")
    outcome = run.measure(workload, seconds=0.0, trace=False)
    line = run.result_line(workload, outcome)
    assert not line["correct"]
    box, exact = len(workload.box_streams), len(workloads.ShapeJoins.streams)
    assert line["attempted"] == box * workload.inputs + exact
    assert line["failed"] == box * workload.inputs
    assert set(workload.failures) == set(workload.box_streams)
    # the budgeted join loses one pair per partition join, the rest exactly one
    assert all(" missing, 0 extra" in p[0] for p in workload.failures.values())
    assert workload.failures["touch_join"][0].startswith("1 missing")
    assert outcome["end_to_end"]["error_rate"][0] == line["failed"] / line["attempted"]
    # the tap is removed again after the run
    assert SpatialJoinAlgorithm.join is lossy


def test_refine_is_checked_against_the_object_backend(small, monkeypatch):
    """A pair only the object refine drops fails the numpy-refined joins."""
    from repro.refine import RefinePipeline

    original = RefinePipeline._refine_object

    def lossy(pipeline, pairs, side_a, side_b, stats):
        return original(pipeline, pairs, side_a, side_b, stats)[1:]

    monkeypatch.setattr(RefinePipeline, "_refine_object", lossy)
    workload = small("join_uniform")
    outcome = run.measure(workload, seconds=0.0, trace=False)
    assert not run.result_line(workload, outcome)["correct"]
    assert workload.failed >= 1
    assert set(workload.failures) <= set(workloads.ShapeJoins.streams)
    assert all(p[0].startswith("0 missing, 1 extra") for p in workload.failures.values())


def test_inputs_follow_the_seed():
    first = inputs.clustered_box_arrays(inputs.rng_for(7, "a"), 50, 30.0)
    again = inputs.clustered_box_arrays(inputs.rng_for(7, "a"), 50, 30.0)
    other = inputs.clustered_box_arrays(inputs.rng_for(8, "a"), 50, 30.0)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    rows = inputs.nearest_batches(inputs.rng_for(7, "batches"), *first, n_batches=2, size=5)
    assert [len(r) for r in rows] == [5, 5]


def test_benchmark_json_names_what_the_runs_report():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == workloads.LAYER_METRICS
    assert doc["command"] == ["python3", "perfbench/run.py"] and doc["paths"] == ["perfbench"]


def test_setups_are_fresh_copies_spread_over_the_run(small):
    """Set-ups after the first build copies; the rounds keep the warm original."""
    workload = small("probe_local")
    outcome = run.measure(workload, seconds=0.0, trace=True)
    assert len(workload.setup_phases) == run.SETUPS
    assert outcome["end_to_end"]["setup_s"][2] == run.SETUPS
    # every timed probe hit the index the original built in its one set-up
    assert outcome["layers"]["service.cache_hit_rate"] == 1.0
    # the copies' shard workers, like the original's, are stopped
    assert not multiprocessing.active_children()
