"""The memory governor: budget ledger, spill store, budgeted-join parity.

Parity is the load-bearing property: a budgeted join must return the
*identical* pair set as the unbudgeted base algorithm at every budget,
while actually spilling (counters prove it) and leaving no spill files
behind.  The fault-injection tests pin the failure contract: a vanished
or truncated spill file surfaces as :class:`SpillError`, and the spill
directory is removed on success *and* on crash.
"""

from __future__ import annotations

import io
import os
import pickle

import numpy as np
import pytest

from repro.bench.config import RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.synthetic import uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.joins.base import dimensionality
from repro.joins.registry import available, make_algorithm
from repro.memory import (
    BudgetedSpatialJoin,
    MemoryBudget,
    SpillError,
    SpillStore,
    validate_max_bytes,
)
from repro.service import SpatialQueryService

EPS = 0.5


@pytest.fixture(scope="module")
def dense_pair():
    """Dense enough (2-6-unit boxes in a 100-unit cube) to yield pairs."""
    return (
        uniform_boxes(400, space=100.0, dim=3, side_range=(2.0, 6.0), seed=21),
        uniform_boxes(300, space=100.0, dim=3, side_range=(2.0, 6.0), seed=22),
    )


def footprint(name, pair, **overrides):
    a, b = pair
    algo = make_algorithm(name, **overrides)
    return algo.estimate_bytes(len(a), len(b), dimensionality(a, b))


class TestMemoryBudget:
    def test_charge_release_peak(self):
        budget = MemoryBudget(100)
        assert budget.free_bytes == 100
        budget.charge(60)
        assert budget.fits(40) and not budget.fits(41)
        budget.charge(40)
        assert budget.peak_bytes == 100
        budget.release(60)
        assert budget.used_bytes == 40
        budget.release(1000)  # clamps at zero, never negative
        assert budget.used_bytes == 0
        assert budget.peak_bytes == 100

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(100).charge(-1)

    @pytest.mark.parametrize("bad", [0, -1, True, False, 1.5, "64", None])
    def test_validate_max_bytes_rejects(self, bad):
        with pytest.raises(ValueError) as excinfo:
            validate_max_bytes(bad)
        assert "max_bytes" in str(excinfo.value)

    def test_validate_names_the_argument(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            validate_max_bytes(0, argument="capacity_bytes")


class TestSpillStore:
    def _table(self, n, seed, dim=3):
        return uniform_boxes(n, space=50.0, dim=dim, seed=seed).to_table()

    def test_round_trip(self):
        a, b = self._table(20, 1), self._table(30, 2)
        with SpillStore() as store:
            part = store.write(0, a, b)
            assert part.n_a == 20 and part.n_b == 30
            assert part.file_bytes > 0
            assert store.bytes_written == part.file_bytes
            back_a, back_b = store.read(part)
        for back, table in ((back_a, a), (back_b, b)):
            assert back.coords.tobytes() == table.coords.tobytes()
            assert back.ids.tobytes() == table.ids.tobytes()

    def test_read_once_deletes_the_file(self):
        a, b = self._table(5, 3), self._table(5, 4)
        with SpillStore() as store:
            part = store.write(7, a, b)
            assert os.path.exists(part.path)
            store.read(part)
            assert not os.path.exists(part.path)
            with pytest.raises(SpillError):
                store.read(part)

    def test_close_removes_directory_even_with_unread_partitions(self):
        a, b = self._table(5, 5), self._table(5, 6)
        store = SpillStore()
        store.write(0, a, b)
        directory = store.directory
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)
        store.close()  # idempotent

    def test_missing_file_raises_spill_error(self):
        a, b = self._table(5, 7), self._table(5, 8)
        with SpillStore() as store:
            part = store.write(0, a, b)
            os.remove(part.path)
            with pytest.raises(SpillError):
                store.read(part)

    def test_corrupt_file_raises_spill_error(self):
        a, b = self._table(8, 9), self._table(8, 10)
        with SpillStore() as store:
            part = store.write(0, a, b)
            with open(part.path, "r+b") as handle:
                handle.truncate(16)
            with pytest.raises(SpillError):
                store.read(part)

    def test_pickled_payload_raises_spill_error(self):
        # np.load(allow_pickle=False) refuses a pickle stream with a bare
        # ValueError; the store must translate it like any corruption.
        a, b = self._table(8, 11), self._table(8, 12)
        with SpillStore() as store:
            part = store.write(0, a, b)
            with open(part.path, "wb") as handle:
                pickle.dump([a.to_objects(), []], handle)
            with pytest.raises(SpillError, match="failed to read spilled partition"):
                store.read(part)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_table_slices_write_the_packed_object_layout(self, dim):
        """Byte for byte the file the per-object packing wrote before
        the store took table slices: per side, float64 ``(n, 2D)``
        coordinates (lo corner, then hi), then the int64 ids."""
        objects_a = list(uniform_boxes(17, space=50.0, dim=dim, seed=13))
        objects_b = list(uniform_boxes(9, space=50.0, dim=dim, seed=14))
        objects_a[3] = SpatialObject(-2, MBR((-0.0,) * dim, (0.0,) * dim))
        rows = [0, 2, 3, 5, 8, 13, 16]
        expected = io.BytesIO()
        for side in ([objects_a[i] for i in rows], objects_b):
            coords = np.empty((len(side), 2 * dim), dtype=np.float64)
            ids = np.empty(len(side), dtype=np.int64)
            for row, obj in enumerate(side):
                coords[row, :dim] = obj.mbr.lo
                coords[row, dim:] = obj.mbr.hi
                ids[row] = obj.oid
            np.save(expected, coords, allow_pickle=False)
            np.save(expected, ids, allow_pickle=False)
        table_a = CoordinateTable.from_objects(objects_a).take(np.array(rows))
        table_b = CoordinateTable.from_objects(objects_b)
        with SpillStore() as store:
            part = store.write(0, table_a, table_b)
            with open(part.path, "rb") as handle:
                assert handle.read() == expected.getvalue()
            assert part.file_bytes == len(expected.getvalue())

    def test_row_with_hi_below_lo_raises_spill_error(self):
        a, b = self._table(6, 15), self._table(6, 16)
        broken = a.coords.copy()
        broken[4, 1], broken[4, 4] = 9.0, 8.0  # hi < lo on axis 1
        with SpillStore() as store:
            part = store.write(3, CoordinateTable(broken, a.ids), b)
            with pytest.raises(SpillError, match=r"hi < lo in dimension 1"):
                store.read(part)


class TestBudgetedParity:
    @pytest.mark.parametrize("name", [info.name for info in available()])
    def test_every_algorithm_spills_to_the_same_pairs(self, name, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm(name).join(a, b).pair_set()
        assert baseline, "workload must produce pairs for parity to mean anything"
        estimated = footprint(name, dense_pair)
        for divisor in (2, 4):
            joiner = BudgetedSpatialJoin(name, max_bytes=estimated // divisor)
            result = joiner.join(a, b)
            assert result.pair_set() == baseline
            assert result.stats.extra["spilled_partitions"] > 0
            assert result.stats.extra["unspills"] > 0
            assert result.stats.extra["spill_bytes_written"] > 0
            assert joiner.last_spill_dir is not None
            assert not os.path.exists(joiner.last_spill_dir)

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_backend_parity_under_budget(self, backend, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm("TOUCH", backend=backend).join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair, backend=backend)
        joiner = BudgetedSpatialJoin(
            lambda: make_algorithm("TOUCH", backend=backend),
            max_bytes=estimated // 4,
        )
        result = joiner.join(a, b)
        assert result.pair_set() == baseline
        assert result.stats.extra["spilled_partitions"] > 0

    def test_fitting_join_runs_the_base_directly(self, dense_pair):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        result = BudgetedSpatialJoin("NL", max_bytes=estimated * 10).join(a, b)
        assert result.pair_set() == make_algorithm("NL").join(a, b).pair_set()
        assert result.stats.extra["spilled_partitions"] == 0
        assert result.stats.extra["unspills"] == 0

    def test_empty_inputs(self):
        result = BudgetedSpatialJoin("NL", max_bytes=1).join([], [])
        assert result.pairs == []

    def test_slab_decomposition_parity(self, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm("TOUCH").join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair)
        joiner = BudgetedSpatialJoin("TOUCH", max_bytes=estimated // 3, kind="slabs")
        assert joiner.join(a, b).pair_set() == baseline


#: Counters of the budgeted joins of ``dense_pair``, recorded with the
#: per-object membership/ownership loops and object-list spill packing
#: that the column rules replaced: (pairs, comparisons, dedup_checks,
#: duplicates_suppressed) + ``_PINNED_EXTRA``.
_PINNED_EXTRA = (
    "spilled_partitions", "spill_bytes_written", "spill_bytes_read", "unspills",
    "spill_passes", "resident_partitions", "budget_peak_bytes",
    "recursive_repartitions", "budget_overruns",
)
_PINNED = {
    ("TOUCH", 4): (65, 877, 171, 31, 7, 44016, 44016, 7, 7, 1, 23712, 0, 0),
    ("TOUCH", 8): (65, 715, 171, 30, 15, 53600, 53600, 15, 14, 1, 17800, 0, 0),
    ("PBSM-100", 4): (65, 693, 197, 57, 7, 44016, 44016, 7, 7, 1, 41216, 0, 0),
    ("PBSM-100", 8): (65, 677, 196, 55, 15, 53600, 53600, 15, 14, 1, 32016, 0, 0),
    ("NL", 4): (65, 20146, 75, 10, 7, 44016, 44016, 7, 7, 1, 12544, 0, 0),
    ("NL", 8): (65, 11666, 76, 11, 15, 53600, 53600, 15, 14, 1, 9744, 0, 0),
}


def _pinned(result):
    stats = result.stats
    return (
        len(result.pairs), stats.comparisons, stats.dedup_checks,
        stats.duplicates_suppressed,
    ) + tuple(stats.extra[key] for key in _PINNED_EXTRA)


class TestPinnedCounters:
    @pytest.mark.parametrize("name,divisor", sorted(_PINNED))
    def test_counters_match_the_recorded_run(self, name, divisor, dense_pair):
        a, b = dense_pair
        joiner = BudgetedSpatialJoin(name, max_bytes=footprint(name, dense_pair) // divisor)
        result = joiner.join(a, b)
        assert _pinned(result) == _PINNED[name, divisor]
        assert result.pair_set() == make_algorithm(name).join(a, b).pair_set()

    def test_spills_pack_partition_rows_never_a_whole_side(self, dense_pair, monkeypatch):
        # The object-backend base builds no tables, so every table seen
        # here is built by the governor itself.
        a, b = dense_pair
        sizes = []
        original = CoordinateTable.from_objects.__func__

        def spy(cls, objects, dim=None):
            sizes.append(len(objects))
            return original(cls, objects, dim)

        monkeypatch.setattr(CoordinateTable, "from_objects", classmethod(spy))
        joiner = BudgetedSpatialJoin(
            lambda: make_algorithm("NL", backend="object"),
            max_bytes=footprint("NL", dense_pair) // 4,
        )
        result = joiner.join(a, b)
        assert result.stats.extra["spilled_partitions"] > 0
        assert sizes and max(sizes) < min(len(a), len(b))


class TestSkewRecursion:
    def test_stacked_boxes_recurse_then_overrun(self):
        """Identical boxes cannot be split: recursion bottoms out cleanly.

        Small ``max_partitions``/``max_depth`` keep the degenerate case
        from fanning out combinatorially (every region holds every box).
        """
        box = MBR((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        a = [SpatialObject(i, box) for i in range(12)]
        b = [SpatialObject(i, box) for i in range(12)]
        joiner = BudgetedSpatialJoin(
            "NL", max_bytes=64, max_partitions=2, max_depth=1
        )
        result = joiner.join(a, b)
        assert result.pair_set() == make_algorithm("NL").join(a, b).pair_set()
        assert len(result.pairs) == 12 * 12
        assert result.stats.extra["recursive_repartitions"] > 0
        assert result.stats.extra["budget_overruns"] > 0
        assert not os.path.exists(joiner.last_spill_dir)
        assert _pinned(result) == (144, 576, 864, 432, 6, 11136, 11136, 0, 6, 0, 0, 2, 4)


class _ExplodingJoin:
    """A base algorithm that dies mid-join, for crash-hygiene tests."""

    name = "Exploding"

    def __init__(self):
        self._inner = make_algorithm("NL")
        self.estimate_bytes = self._inner.estimate_bytes

    def join(self, a, b):
        raise RuntimeError("synthetic mid-join crash")


class TestFaultInjection:
    def test_vanished_spill_file_is_a_spill_error(self, dense_pair, monkeypatch):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        original_read = SpillStore.read

        def vanishing_read(self, partition):
            if os.path.exists(partition.path):
                os.remove(partition.path)
            return original_read(self, partition)

        monkeypatch.setattr(SpillStore, "read", vanishing_read)
        joiner = BudgetedSpatialJoin("NL", max_bytes=estimated // 4)
        with pytest.raises(SpillError):
            joiner.join(a, b)
        assert not os.path.exists(joiner.last_spill_dir)

    def test_base_join_crash_still_cleans_the_spill_dir(self, dense_pair):
        a, b = dense_pair
        joiner = BudgetedSpatialJoin(_ExplodingJoin, max_bytes=1024)
        with pytest.raises(RuntimeError, match="synthetic mid-join crash"):
            joiner.join(a, b)
        assert joiner.last_spill_dir is not None
        assert not os.path.exists(joiner.last_spill_dir)

    def test_custom_spill_root(self, dense_pair, tmp_path):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        joiner = BudgetedSpatialJoin(
            "NL", max_bytes=estimated // 4, spill_root=str(tmp_path)
        )
        baseline = make_algorithm("NL").join(a, b).pair_set()
        assert joiner.join(a, b).pair_set() == baseline
        assert list(tmp_path.iterdir()) == []  # per-join dir removed


class TestRunOptionsPlumbing:
    def test_options_max_bytes_budgets_the_run(self, dense_pair):
        a, b = dense_pair
        plain = run_algorithm("TOUCH", a, b, EPS)
        inflated = [o.inflated(EPS) for o in a]
        estimated = make_algorithm("TOUCH").estimate_bytes(
            len(a), len(b), dimensionality(inflated, b)
        )
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(max_bytes=estimated // 4)
        )
        assert record.result_pairs == plain.result_pairs
        assert record.extra["spilled_partitions"] > 0
        assert record.extra["budget_bytes"] == estimated // 4

    def test_env(self, monkeypatch):
        assert RunOptions.from_env().max_bytes is None
        monkeypatch.setenv("REPRO_MAX_BYTES", "12345")
        assert RunOptions.from_env().max_bytes == 12345
        explicit = RunOptions(max_bytes=777).over(RunOptions.from_env())
        assert explicit.max_bytes == 777

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5])
    def test_run_options_validation(self, bad):
        with pytest.raises(ValueError, match="max_bytes"):
            RunOptions(max_bytes=bad)


class TestServiceAcceptance:
    """The PR's acceptance criterion, via the service front door."""

    @pytest.mark.parametrize("algorithm", ["TOUCH", "TwoLayer-500"])
    def test_quarter_budget_probe_parity(self, algorithm, dense_pair):
        a, b = dense_pair
        inflated = [o.inflated(EPS) for o in a]
        baseline = make_algorithm(algorithm).join(inflated, list(b)).pair_set()
        estimated = make_algorithm(algorithm).estimate_bytes(
            len(a), len(b), dimensionality(a, b)
        )
        service = SpatialQueryService(max_bytes=estimated // 4)
        service.register("build", a)
        result = service.probe("build", b, EPS, algorithm=algorithm)
        assert result.pair_set() == baseline
        assert result.parameters["cache"] == "spilled"
        stats = service.stats()
        assert stats["spilled_partitions"] > 0
        assert stats["spilled_joins"] == 1
        assert stats["spill_bytes_written"] > 0
        spill_dir = result.parameters["spill_dir"]
        assert spill_dir and not os.path.exists(spill_dir)

    def test_per_probe_override_wins(self, dense_pair):
        a, b = dense_pair
        estimated = make_algorithm("TOUCH").estimate_bytes(
            len(a), len(b), dimensionality(a, b)
        )
        service = SpatialQueryService()  # no service-wide budget
        service.register("build", a)
        budgeted = service.probe("build", b, EPS, max_bytes=estimated // 4)
        plain = service.probe("build", b, EPS)
        assert budgeted.pair_set() == plain.pair_set()
        assert budgeted.parameters["cache"] == "spilled"
        assert plain.parameters["cache"] in ("cold", "warm")


@pytest.mark.parallel
class TestParallelBudget:
    @pytest.mark.parametrize("dedup", ["reference", "partition"])
    def test_worker_budgets_preserve_parity(self, dedup, dense_pair):
        from repro.parallel.engine import ParallelChunkedJoin

        a, b = dense_pair
        baseline = make_algorithm("TOUCH").join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair)
        engine = ParallelChunkedJoin(
            "TOUCH", workers=2, dedup=dedup, max_bytes=estimated // 2
        )
        result = engine.join(a, b)
        assert result.pair_set() == baseline
        assert result.stats.extra["worker_max_bytes"] == estimated // 4
        assert result.stats.extra["spilled_partitions"] > 0
