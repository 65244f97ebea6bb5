"""The benchmark workloads.

Each workload generates its inputs from the seed, sets the program up,
computes reference answers, then runs *rounds*: one operation of every
stream, in a fixed order, each timed and checked.  A closed-loop client
with one request in flight drives every stream.  Traced rounds also
replay the layers an operation hides (inflation, columnar conversion,
fingerprint, sketch, plan, direct probes) and record every timing as a
span; untraced rounds time the operations alone.

Per-layer metrics a workload does not exercise read 0: the layer does
not run there, so a change to it should leave that workload unchanged.
"""

from __future__ import annotations

import time
from collections import defaultdict

from perfbench import inputs
from perfbench.oracle import box_join_pairs, pair_mismatch, shapes_intersect
from perfbench.summary import median, percentile, percentile_allowed
from perfbench.tap import PairTap

__all__ = ["WORKLOADS", "LAYER_METRICS", "Workload"]

#: Per-layer metric name → (unit, better).  Every traced run reports all.
LAYER_METRICS = {
    "datasets.gen_s": ("s", "lower"),
    "geometry.inflate_s": ("s", "lower"),
    "geometry.to_table_s": ("s", "lower"),
    "fingerprint.s": ("s", "lower"),
    "optimizer.sketch_s": ("s", "lower"),
    "optimizer.plan_s": ("s", "lower"),
    "optimizer.oracle_ratio": ("ratio", "lower"),
    "core.touch.build_s": ("s", "lower"),
    "core.touch.assign_s": ("s", "lower"),
    "core.touch.join_s": ("s", "lower"),
    "core.touch.unattributed_s": ("s", "lower"),
    "core.touch.comparisons": ("count", "lower"),
    "core.touch.pairs_per_comparison": ("ratio", "higher"),
    "joins.pbsm.build_s": ("s", "lower"),
    "joins.pbsm.probe_s": ("s", "lower"),
    "joins.pbsm.comparisons": ("count", "lower"),
    "partition.twolayer.build_s": ("s", "lower"),
    "partition.twolayer.probe_s": ("s", "lower"),
    "partition.twolayer.comparisons": ("count", "lower"),
    "memory.overhead_s": ("s", "lower"),
    "memory.spilled_partitions": ("count", "lower"),
    "memory.spill_bytes_written": ("bytes", "lower"),
    "memory.spill_passes": ("count", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.cache_hit_rate": ("ratio", "higher"),
    "service.build_s": ("s", "lower"),
    "serving.overhead_ms": ("ms", "lower"),
    "serving.fanout": ("count", "lower"),
    "serving.start_s": ("s", "lower"),
    "refine.filter_s": ("s", "lower"),
    "refine.refine_s": ("s", "lower"),
    "refine.candidate_pairs": ("count", "lower"),
    "refine.false_hit_prunes": ("count", "higher"),
    "refine.true_hits": ("count", "higher"),
    "refine.exact_tests": ("count", "lower"),
    "refine.exact_tests_per_candidate": ("ratio", "lower"),
    "refine.pairs_per_candidate": ("ratio", "higher"),
    "refine.eps0_oracle_missed": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _other(stats) -> float:
    """Time inside ``total_seconds`` that no phase timer claims."""
    return max(
        0.0,
        stats.total_seconds
        - stats.build_seconds
        - stats.assign_seconds
        - stats.join_seconds,
    )


def _attribute(tracer, span, prefix: str, stats, refine_seconds: float = 0.0) -> None:
    """Children and counters of an operation span from what it returned.

    ``stats`` is a ``JoinStatistics`` or ``RunRecord``.  The children come
    from its phase timers and sum to ``total_seconds``, so the span's self
    time is its wall clock minus ``total_seconds``: the unattributed
    residue.
    """
    parts = [
        (f"{prefix}.build", stats.build_seconds),
        (f"{prefix}.assign", stats.assign_seconds),
        (f"{prefix}.join", stats.join_seconds - refine_seconds),
    ]
    if refine_seconds:
        parts.append(("refine.refine", refine_seconds))
    parts.append((f"{prefix}.other", _other(stats)))
    tracer.derived(span, parts)
    span.counters = {key: getattr(stats, key)
                     for key in ("comparisons", "node_tests", "result_pairs")}


class Workload:
    """Set-up, reference, rounds and metrics of one workload."""

    name = ""
    #: Operations of one round, in order.
    streams: tuple[str, ...] = ()
    #: The stream ``touch_ms`` reports: the workload's headline TOUCH operation.
    headline = ""
    #: Distinct inputs; rounds cycle through them.
    inputs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # samples[traced][stream][input key] -> seconds of each repetition
        self.samples = {
            traced: defaultdict(lambda: defaultdict(list)) for traced in (False, True)
        }
        self.rounds = {False: 0, True: 0}
        self.layer_rounds: list[dict] = []
        self.setup_phases: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = defaultdict(list)

    # -- hooks ---------------------------------------------------------
    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self) -> dict:
        """Build inputs and program state; returns timed set-up phases."""
        raise NotImplementedError

    def reference(self) -> None:
        """Compute reference answers (untimed)."""

    def run_round(self, key: int, tracer, traced: bool) -> None:
        """One operation of every stream on input ``key``."""
        raise NotImplementedError

    def end_to_end(self) -> dict:
        """The workload-specific end-to-end timings: name -> (value, unit, samples)."""
        raise NotImplementedError

    def layers(self) -> dict:
        """Per-layer values not taken from traced rounds (set-up phases, ratios)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def worker_pids(self) -> list[int]:
        """Processes the program runs for this workload besides this one."""
        return []

    # -- shared machinery ----------------------------------------------
    def _op(self, tracer, traced: bool, stream: str, call, check, key=0):
        """One operation: timed as a span, output checked.

        Returns ``(result, span)``; ``(None, None)`` when it raised.  A
        raise or a wrong output counts as failed; neither stops the run.
        """
        op = tracer.new_op()
        self.attempted += 1
        result = span = None
        try:
            with tracer.span(f"op.{stream}", op) as span:
                result = call()
            problem = check(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
            result = span = None
        if problem:
            self.failed += 1
            if len(self.failures[stream]) < 3:
                self.failures[stream].append(problem)
        if span is not None:
            self.samples[traced][stream][key].append(span.duration)
        return result, span

    def _round_done(self, traced: bool, spans, key=0) -> None:
        """Count a round; a round whose operations all completed is a
        ``round`` sample, the sum of their times."""
        self.rounds[traced] += 1
        if all(span is not None for span in spans):
            self.samples[traced]["round"][key].append(sum(s.duration for s in spans))

    def timing(self, stream: str, traced: bool = False, q: float = 50) -> float | None:
        """A stream's timing: the ``q``-th percentile over its distinct inputs
        of each input's median over its repetitions.

        Rounds cycle through the inputs, so each input's repetitions are
        spread over the whole run (see the README on the host's speed
        swings); the percentile over inputs keeps the spread of the work
        itself.  ``None`` when too few inputs for the percentile.
        """
        medians = [median(reps) for reps in self.samples[traced][stream].values() if reps]
        if q == 50:
            return median(medians)
        return percentile(medians, q) if percentile_allowed(len(medians), q) else None

    def sample_count(self, stream: str, traced: bool = False) -> str:
        inputs = self.samples[traced][stream]
        reps = sum(len(r) for r in inputs.values())
        return f"{reps}" if len(inputs) == 1 else f"{reps} over {len(inputs)} inputs"

    def _setup_median(self, key: str) -> float:
        return median([phases[key] for phases in self.setup_phases])

    def layer_metrics(self) -> dict:
        """Every per-layer metric: medians over traced rounds, then
        :meth:`layers`; 0 for layers this workload does not run."""
        values = {name: 0.0 for name in LAYER_METRICS}
        for name in values:
            measured = [r[name] for r in self.layer_rounds if name in r]
            if measured:
                values[name] = median(measured)
        values.update(self.layers())
        values["trace.overhead_ratio"] = self.timing("round", traced=True) / self.timing("round")
        return values


def _check_pairs(expected: set, pairs, count=None) -> str | None:
    if pairs is None:
        return "no pair list captured"
    if len(pairs) != len(set(pairs)):
        return f"{len(pairs) - len(set(pairs))} duplicate pairs"
    problem = pair_mismatch(pairs, expected)
    if problem is None and count is not None and count != len(expected):
        problem = f"reported {count} pairs, expected {len(expected)}"
    return problem


# ---------------------------------------------------------------------------
# exact-geometry joins (run inside join_uniform)
# ---------------------------------------------------------------------------
class ShapeJoins:
    """Exact-geometry TOUCH joins of clustered polygons and linestrings.

    One join per stream runs once per cycle of :class:`JoinUniform`, at
    ε = 0 (the intersection predicate) and ε = 5, each checked against the
    object-backend join with the object refine of the same input.
    """

    streams = ("polygons_eps0", "polygons_eps5", "lines_eps0", "lines_eps5")
    N_A, N_B = 700, 2800
    EPSILONS = (0.0, 5.0)

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        # The small scale's universe (its A is 2000).  At A = 2000 the
        # four exact joins take ~25 s on a 2-core x86 host; 700 objects
        # keep them near 2-3 s, short enough to run beside the box joins.
        self.space = inputs.box_space(2000)

    def sizes(self) -> dict:
        return {"A": self.N_A, "B": self.N_B, "epsilons": list(self.EPSILONS),
                "dim": 2, "space": self.space, "distribution": "clustered polygons/linestrings"}

    def setup(self) -> float:
        """Builds the shape datasets; returns the seconds their objects took."""
        seed = self.workload.seed
        rings_a = inputs.polygon_rings(inputs.rng_for(seed, "a"), self.N_A, self.space)
        rings_b = inputs.polygon_rings(inputs.rng_for(seed, "b"), self.N_B, self.space)
        walks_a = inputs.linestring_walks(inputs.rng_for(seed, "a"), self.N_A, self.space)
        walks_b = inputs.linestring_walks(inputs.rng_for(seed, "b"), self.N_B, self.space)
        start = time.perf_counter()
        self.data = {
            "polygons": (inputs.shapes_dataset(rings_a, "polygon", "polygons-A"),
                         inputs.shapes_dataset(rings_b, "polygon", "polygons-B")),
            "lines": (inputs.shapes_dataset(walks_a, "linestring", "lines-A"),
                      inputs.shapes_dataset(walks_b, "linestring", "lines-B")),
        }
        return time.perf_counter() - start

    def _join(self, dataset: str, epsilon: float, backend: str):
        from repro.bench.config import RunOptions
        from repro.bench.runner import run_algorithm

        a, b = self.data[dataset]
        # The backend goes through the options so that both stages use
        # it: a ``backend=`` keyword would reach only the filter join.
        record = run_algorithm("TOUCH", a, b, epsilon,
                               options=RunOptions(geometry="exact", backend=backend))
        return (record,) + self.workload.tap.take()

    def _ops(self):
        for dataset in self.data:
            for epsilon in self.EPSILONS:
                yield f"{dataset}_eps{epsilon:g}", dataset, epsilon

    def reference(self) -> None:
        """Object-backend filter and refine of the same joins, plus the ε=0
        oracle count (the workload's tap must be on).

        ``oracle_missed`` counts ε=0 pairs the orientation oracle finds
        that the object refine drops.  It is reported, not gated: numpy and
        object refine share the distance predicate, so their agreement (the
        gated check) cannot see it.
        """
        self.expected = {}
        self.oracle_missed = 0
        for stream, dataset, epsilon in self._ops():
            _, candidates, refined = self._join(dataset, epsilon, "object")
            self.expected[stream] = set(refined)
            if epsilon == 0.0:
                a, b = self.data[dataset]
                exact = {
                    (i, j) for i, j in set(candidates)
                    if shapes_intersect(a[i].geometry.kind, a[i].geometry.vertices,
                                        b[j].geometry.kind, b[j].geometry.vertices)
                }
                self.oracle_missed += len(exact - self.expected[stream])

    def run(self, tracer, traced: bool) -> dict:
        """One checked join per stream; returns stream -> (result, span)."""
        workload = self.workload
        done = {}
        for stream, dataset, epsilon in self._ops():
            expected = self.expected[stream]

            def check(result, expected=expected):
                record, _, refined = result
                x = record.extra
                if x["true_hits"] + x["exact_tests"] != x["candidate_pairs"] - x["false_hit_prunes"]:
                    return (f"counter identity broken: {x['true_hits']} + {x['exact_tests']} != "
                            f"{x['candidate_pairs']} - {x['false_hit_prunes']}")
                return _check_pairs(expected, refined, record.result_pairs)

            done[stream] = workload._op(
                tracer, traced, stream,
                lambda: self._join(dataset, epsilon, "columnar"), check)
        for dataset in self.data:
            pair = (done[f"{dataset}_eps0"][1], done[f"{dataset}_eps5"][1])
            if None not in pair:
                workload.samples[traced][f"exact_{dataset}"][0].append(
                    pair[0].duration + pair[1].duration)
        return done

    def trace_layers(self, tracer, done) -> dict:
        """The refine layers of one traced :meth:`run`, summed over its joins."""
        layers = defaultdict(float)
        for result, span in done.values():
            if span is None:
                continue
            record = result[0]
            refine_s = record.extra.get("refine_seconds", 0.0)
            _attribute(tracer, span, "core.touch", record, refine_s)
            layers["refine.filter_s"] += record.total_seconds - refine_s
            layers["refine.refine_s"] += refine_s
            for key in ("candidate_pairs", "false_hit_prunes", "true_hits", "exact_tests",
                        "refined_pairs"):
                layers[f"refine.{key}"] += record.extra[key]
        candidates = layers["refine.candidate_pairs"]
        refined = layers.pop("refine.refined_pairs", 0)
        if candidates:
            layers["refine.exact_tests_per_candidate"] = layers["refine.exact_tests"] / candidates
            layers["refine.pairs_per_candidate"] = refined / candidates
        return dict(layers)

    def end_to_end(self) -> dict:
        workload = self.workload
        return {
            f"exact_{dataset}_s": (workload.timing(f"exact_{dataset}"), "s",
                                   workload.sample_count(f"exact_{dataset}"))
            for dataset in self.data
        }


# ---------------------------------------------------------------------------
# join_uniform
# ---------------------------------------------------------------------------
class JoinUniform(Workload):
    """One-shot ``run_algorithm`` joins: five variants on Fig. 9 medium
    boxes, then the exact-geometry joins of :class:`ShapeJoins`.

    TOUCH's join time moves by up to half between seeds at this size (the
    tree it builds differs), so a run joins several independently drawn
    box dataset pairs — its inputs — and reports the median over them.
    ``round`` times the five box joins of one input.  The exact joins run
    once per cycle through the inputs, after the box joins of input 0,
    timed and checked but outside ``round`` (the README says why).
    """

    name = "join_uniform"
    box_streams = ("touch_join", "pbsm_join", "twolayer_join", "auto_join", "budgeted_join")
    streams = box_streams + ShapeJoins.streams
    headline = "touch_join"
    inputs = 5
    N_A, N_B, EPSILON, DIM = 8000, 32000, 5.0, 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.space = inputs.box_space(self.N_A)
        self.tap = PairTap()
        self.shapes = ShapeJoins(self)

    def sizes(self) -> dict:
        return {"A": self.N_A, "B": self.N_B, "epsilon": self.EPSILON, "dim": self.DIM,
                "space": self.space, "distribution": "uniform", "dataset_pairs": self.inputs,
                "shapes": self.shapes.sizes()}

    def setup(self) -> dict:
        from repro.joins import make_algorithm

        self.arrays = [
            inputs.uniform_box_arrays(inputs.rng_for(self.seed, "a", k), self.N_A, self.space,
                                      self.DIM)
            + inputs.uniform_box_arrays(inputs.rng_for(self.seed, "b", k), self.N_B, self.space,
                                        self.DIM)
            for k in range(self.inputs)
        ]
        start = time.perf_counter()
        self.pairs = [
            (inputs.boxes_dataset(a_lo, a_hi, f"uniform-A{k}", self.space),
             inputs.boxes_dataset(b_lo, b_hi, f"uniform-B{k}", self.space))
            for k, (a_lo, a_hi, b_lo, b_hi) in enumerate(self.arrays)
        ]
        gen = time.perf_counter() - start + self.shapes.setup()
        footprint = make_algorithm("TOUCH", backend="columnar").estimate_bytes(
            self.N_A, self.N_B, self.DIM)
        self.max_bytes = max(1, footprint // 4)
        return {"datasets.gen_s": gen}

    def reference(self) -> None:
        self.expected = [box_join_pairs(*arrays, self.EPSILON) for arrays in self.arrays]
        self.tap.__enter__()
        self.shapes.reference()

    def _variants(self):
        from repro.bench.config import RunOptions

        columnar = {"backend": "columnar"}
        return (
            ("touch_join", "TOUCH", columnar),
            ("pbsm_join", "PBSM-100", columnar),
            ("twolayer_join", "TwoLayer-100", columnar),
            ("auto_join", "auto", {}),
            ("budgeted_join", "TOUCH",
             {"backend": "columnar", "options": RunOptions(max_bytes=self.max_bytes)}),
        )

    def run_round(self, key: int, tracer, traced: bool) -> None:
        from repro.bench.runner import run_algorithm

        dataset_a, dataset_b = self.pairs[key]

        def join(algorithm, kwargs):
            record = run_algorithm(algorithm, dataset_a, dataset_b, self.EPSILON, **kwargs)
            return record, self.tap.take()[0]

        def check(result):
            record, pairs = result
            return _check_pairs(self.expected[key], pairs, record.result_pairs)

        done = {}
        for stream, algorithm, kwargs in self._variants():
            done[stream] = self._op(
                tracer, traced, stream, lambda: join(algorithm, kwargs), check, key)
        self._round_done(traced, [span for _, span in done.values()], key)
        exact = self.shapes.run(tracer, traced) if key == 0 else None
        if traced:
            layers = self._trace_round(tracer, done, dataset_a, dataset_b)
            if exact is not None:
                layers.update(self.shapes.trace_layers(tracer, exact))
            self.layer_rounds.append(layers)

    def _trace_round(self, tracer, done, dataset_a, dataset_b) -> dict:
        from repro.datasets.transform import inflate
        from repro.optimizer import choose_plan, sketch_dataset
        from repro.service.fingerprint import dataset_fingerprint

        layers = {}
        prefixes = {"touch_join": "core.touch", "pbsm_join": "joins.pbsm",
                    "twolayer_join": "partition.twolayer"}
        for stream, (result, span) in done.items():
            if span is None:
                continue
            record = result[0]
            _attribute(tracer, span, prefixes.get(stream, "filter"), record)
            if stream in prefixes:
                prefix = prefixes[stream]
                layers[f"{prefix}.build_s"] = record.build_seconds
                layers[f"{prefix}.comparisons"] = record.comparisons
                if stream == "touch_join":
                    layers["core.touch.assign_s"] = record.assign_seconds
                    layers["core.touch.join_s"] = record.join_seconds
                    layers["core.touch.unattributed_s"] = tracer.self_time(span)
                    layers["core.touch.pairs_per_comparison"] = (
                        record.result_pairs / record.comparisons if record.comparisons else 0.0)
                else:
                    layers[f"{prefix}.probe_s"] = record.assign_seconds + record.join_seconds
            if stream == "budgeted_join":
                for key in ("spilled_partitions", "spill_bytes_written", "spill_passes"):
                    layers[f"memory.{key}"] = record.extra.get(key, 0)
        op = tracer.new_op()
        with tracer.span("geometry.inflate", op) as span:
            inflated = inflate(dataset_a, self.EPSILON)
        layers["geometry.inflate_s"] = span.duration
        with tracer.span("geometry.to_table", op) as span:
            inflated.to_table()
            dataset_b.to_table()
        layers["geometry.to_table_s"] = span.duration
        objects_a, objects_b = list(dataset_a), list(dataset_b)
        with tracer.span("fingerprint", op) as span:
            fp_a = dataset_fingerprint(objects_a)
            fp_b = dataset_fingerprint(objects_b)
        layers["fingerprint.s"] = span.duration
        with tracer.span("optimizer.sketch", op) as span:
            sketch_a = sketch_dataset(objects_a, fp_a)
            sketch_b = sketch_dataset(objects_b, fp_b)
        layers["optimizer.sketch_s"] = span.duration
        with tracer.span("optimizer.plan", op) as span:
            choose_plan(sketch_a, sketch_b, self.EPSILON)
        layers["optimizer.plan_s"] = span.duration
        return layers

    def close(self) -> None:
        self.tap.__exit__(None, None, None)

    def end_to_end(self) -> dict:
        out = {
            f"{stream}_s": (self.timing(stream), "s", self.sample_count(stream))
            for stream in self.box_streams
        }
        out.update(self.shapes.end_to_end())
        return out

    def layers(self) -> dict:
        out = {"datasets.gen_s": self._setup_median("datasets.gen_s"),
               "refine.eps0_oracle_missed": self.shapes.oracle_missed}
        fastest = min(self.timing(s, traced=True)
                      for s in ("touch_join", "pbsm_join", "twolayer_join"))
        out["optimizer.oracle_ratio"] = self.timing("auto_join", traced=True) / fastest
        out["memory.overhead_s"] = (self.timing("budgeted_join", traced=True)
                                    - self.timing("touch_join", traced=True))
        return out


# ---------------------------------------------------------------------------
# probe_local
# ---------------------------------------------------------------------------
class ProbeLocal(Workload):
    """Fig. 11 medium clustered A, registered once; nearest-neighbour batches."""

    name = "probe_local"
    streams = ("touch_probe", "auto_probe", "sharded_probe")
    headline = "touch_probe"
    inputs = 100  # probe batches: the fewest that give a p90
    N_A, N_B, EPSILON, DIM = 8000, 32000, 5.0, 3
    BATCH_SIZE, SHARDS = 100, 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.space = inputs.box_space(self.N_A)
        self.service = None
        self.sharded = None
        self.fanout: list[int] = []

    def sizes(self) -> dict:
        return {"A": self.N_A, "B": self.N_B, "epsilon": self.EPSILON, "dim": self.DIM,
                "space": self.space, "distribution": "clustered",
                "batches": self.inputs, "batch_size": self.BATCH_SIZE, "shards": self.SHARDS}

    def setup(self) -> dict:
        from repro.joins import make_algorithm
        from repro.service import SpatialQueryService
        from repro.serving import ShardedQueryService

        a_lo, a_hi = inputs.clustered_box_arrays(
            inputs.rng_for(self.seed, "a"), self.N_A, self.space, self.DIM)
        b_lo, b_hi = inputs.clustered_box_arrays(
            inputs.rng_for(self.seed, "b"), self.N_B, self.space, self.DIM)
        self.arrays = (a_lo, a_hi, b_lo, b_hi)
        self.batch_rows = inputs.nearest_batches(
            inputs.rng_for(self.seed, "batches"), b_lo, b_hi, self.inputs, self.BATCH_SIZE)
        phases = {}
        start = time.perf_counter()
        self.A = inputs.boxes_dataset(a_lo, a_hi, "clustered-A", self.space)
        B = inputs.boxes_dataset(b_lo, b_hi, "clustered-B", self.space)
        phases["datasets.gen_s"] = time.perf_counter() - start
        objects_b = list(B)
        self.batches = [[objects_b[i] for i in rows.tolist()] for rows in self.batch_rows]
        self.objects_a = list(self.A)

        self.service = SpatialQueryService()
        self.service.register("A", self.objects_a)
        start = time.perf_counter()
        cold = self.service.probe("A", self.batches[0], self.EPSILON, algorithm="TOUCH")
        phases["service.build_s"] = time.perf_counter() - start
        phases["core.touch.build_s"] = cold.parameters["build_seconds"]
        for algorithm in ("auto", "PBSM-100"):
            self.service.probe("A", self.batches[0], self.EPSILON, algorithm=algorithm)

        start = time.perf_counter()
        self.sharded = ShardedQueryService(shards=self.SHARDS).start()
        self.sharded.register("A", self.objects_a)
        phases["serving.start_s"] = time.perf_counter() - start
        self.sharded.probe("A", self.batches[0], self.EPSILON, algorithm="PBSM-100")

        self.touch = make_algorithm("TOUCH")
        self.built = self.touch.prepare([obj.inflated(self.EPSILON) for obj in self.objects_a])
        return phases

    def reference(self) -> None:
        a_lo, a_hi, b_lo, b_hi = self.arrays
        self.expected = []
        for rows in self.batch_rows:
            local = box_join_pairs(a_lo, a_hi, b_lo[rows], b_hi[rows], self.EPSILON)
            self.expected.append({(a, int(rows[j])) for a, j in local})
        self.cache_before = self.service.stats()

    def run_round(self, k: int, tracer, traced: bool) -> None:
        batch, expected = self.batches[k], self.expected[k]

        def check(result):
            return _check_pairs(expected, result.pairs, result.stats.result_pairs)

        def local(algorithm):
            return lambda: self.service.probe("A", batch, self.EPSILON, algorithm=algorithm)

        touch, touch_span = self._op(tracer, traced, "touch_probe", local("TOUCH"), check, k)
        _, auto_span = self._op(tracer, traced, "auto_probe", local("auto"), check, k)
        sharded, sharded_span = self._op(
            tracer, traced, "sharded_probe",
            lambda: self.sharded.probe("A", batch, self.EPSILON, algorithm="PBSM-100"), check, k)
        if sharded is not None:
            self.fanout.append(sharded.parameters.get("shards_contacted", 0))
        self._round_done(traced, [touch_span, auto_span, sharded_span], k)
        if traced:
            self._trace_round(tracer, k, batch, check, touch, touch_span, sharded_span)

    def _trace_round(self, tracer, k, batch, check, touch, touch_span, sharded_span):
        from repro.optimizer import choose_plan, sketch_dataset
        from repro.service.fingerprint import dataset_fingerprint

        layers = {}
        if touch_span is not None:
            _attribute(tracer, touch_span, "core.touch", touch.stats)
            layers["core.touch.assign_s"] = touch.stats.assign_seconds
            layers["core.touch.join_s"] = touch.stats.join_seconds
            layers["core.touch.unattributed_s"] = tracer.self_time(touch_span)
            layers["core.touch.comparisons"] = touch.stats.comparisons
            layers["core.touch.pairs_per_comparison"] = (
                touch.stats.result_pairs / touch.stats.comparisons
                if touch.stats.comparisons else 0.0)
        _, direct = self._op(tracer, True, "touch_direct_probe",
                             lambda: self.touch.probe(self.built, batch), check, k)
        if touch_span is not None and direct is not None:
            layers["service.overhead_ms"] = (touch_span.duration - direct.duration) * 1e3
        pbsm, local = self._op(
            tracer, True, "pbsm_local_probe",
            lambda: self.service.probe("A", batch, self.EPSILON, algorithm="PBSM-100"), check, k)
        if local is not None:
            layers["joins.pbsm.build_s"] = pbsm.stats.build_seconds
            layers["joins.pbsm.probe_s"] = pbsm.stats.assign_seconds + pbsm.stats.join_seconds
            layers["joins.pbsm.comparisons"] = pbsm.stats.comparisons
            if sharded_span is not None:
                layers["serving.overhead_ms"] = (sharded_span.duration - local.duration) * 1e3
        op = tracer.new_op()
        with tracer.span("fingerprint", op) as span:
            fp_a = dataset_fingerprint(self.objects_a)
        layers["fingerprint.s"] = span.duration
        with tracer.span("optimizer.sketch", op) as span:
            sketch_a = sketch_dataset(self.objects_a, fp_a)
            sketch_b = sketch_dataset(batch)
        layers["optimizer.sketch_s"] = span.duration
        with tracer.span("optimizer.plan", op) as span:
            choose_plan(sketch_a, sketch_b, self.EPSILON, workers=0,
                        geometry="mbr", reuse_index=True)
        layers["optimizer.plan_s"] = span.duration
        self.layer_rounds.append(layers)

    def worker_pids(self) -> list[int]:
        return [process.pid for process in self.sharded.cluster.processes] if self.sharded else []

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()
            self.sharded = None

    def end_to_end(self) -> dict:
        out = {}
        for stream, tails in (("touch_probe", True), ("auto_probe", False),
                              ("sharded_probe", True)):
            count = self.sample_count(stream)
            out[f"{stream}_p50_ms"] = (self.timing(stream) * 1e3, "ms", count)
            if tails:
                p90 = self.timing(stream, q=90)
                out[f"{stream}_p90_ms"] = (None if p90 is None else p90 * 1e3, "ms", count)
        return out

    def layers(self) -> dict:
        out = {key: self._setup_median(key) for key in
               ("datasets.gen_s", "service.build_s", "core.touch.build_s", "serving.start_s")}
        before, after = self.cache_before, self.service.stats()
        hits = after["warm_hits"] - before["warm_hits"]
        misses = after["cold_builds"] - before["cold_builds"]
        out["service.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["serving.fanout"] = sum(self.fanout) / len(self.fanout) if self.fanout else 0.0
        fastest = min(self.timing(s, traced=True)
                      for s in ("touch_probe", "pbsm_local_probe"))
        out["optimizer.oracle_ratio"] = self.timing("auto_probe", traced=True) / fastest
        return out


WORKLOADS = {cls.name: cls for cls in (JoinUniform, ProbeLocal)}
