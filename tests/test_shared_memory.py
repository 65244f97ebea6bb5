"""Shared-memory coordinate-table hand-off: lifecycle and parity.

The parallel engine publishes each dataset once as a
``multiprocessing.shared_memory`` block and ships only row indices to
workers (``tests/test_parallel_parity.py`` pins the pair parity against
the sequential engines).  These tests pin the primitive layer:
publish / attach / slice round-trips, handle pickling, the
unlink-on-close lifecycle that must never strand ``/dev/shm`` segments,
the shape of every region payload (indices and handles, never a
coordinate buffer), and the engine's crash behaviour (a killed worker
surfaces as :class:`~repro.parallel.engine.WorkerCrashError`, segments
still freed).
"""

from __future__ import annotations

import glob
import pickle

import numpy as np
import pytest

from repro.datasets import uniform_boxes
from repro.datasets.synthetic import clustered_polygons
from repro.geometry.columnar import CoordinateTable, SharedTableHandle
from repro.geometry.mbr import total_mbr
from repro.geometry.vertex_table import SharedVertexHandle
from repro.joins.registry import make_algorithm
from repro.parallel.decompose import Decomposition
from repro.parallel.engine import (
    ParallelChunkedJoin,
    WorkerCrashError,
    _ColumnarSlicer,
    shutdown_pools,
)


def _segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _table(n: int, seed: int = 0) -> CoordinateTable:
    rng = np.random.default_rng(seed)
    lo = rng.random((n, 3)) * 10.0
    hi = lo + rng.random((n, 3))
    return CoordinateTable(
        np.hstack([lo, hi]), np.arange(n, dtype=np.int64)
    )


class TestSharedBlockLifecycle:
    def test_publish_attach_roundtrip(self):
        table = _table(32)
        block = table.to_shared()
        try:
            view = CoordinateTable.from_shared(block.handle)
            assert np.array_equal(view.coords, table.coords)
            assert np.array_equal(view.ids, table.ids)
            view.release()
        finally:
            block.close(unlink=True)

    def test_shm_slice_copies_and_detaches(self):
        table = _table(16, seed=1)
        before = _segments()
        with table.to_shared() as block:
            rows = np.array([3, 1, 7], dtype=np.int64)
            sub = table.take(rows)
            sliced = CoordinateTable.shm_slice(block.handle, rows)
            assert np.array_equal(sliced.coords, sub.coords)
            assert np.array_equal(sliced.ids, sub.ids)
            # The slice owns private copies: mutating it cannot touch
            # the published block.
            sliced.coords[:] = -1.0
            again = CoordinateTable.shm_slice(block.handle, rows)
            assert np.array_equal(again.coords, sub.coords)
        assert _segments() == before

    def test_close_unlinks_and_is_idempotent(self):
        before = _segments()
        block = _table(8).to_shared()
        assert len(_segments()) == len(before) + 1
        block.close(unlink=True)
        assert _segments() == before
        block.close(unlink=True)  # second close must be a no-op

    def test_handle_pickles(self):
        table = _table(4, seed=2)
        with table.to_shared() as block:
            handle = pickle.loads(pickle.dumps(block.handle))
            assert isinstance(handle, SharedTableHandle)
            assert (handle.name, handle.rows, handle.dim) == (
                block.handle.name,
                block.handle.rows,
                block.handle.dim,
            )
            view = CoordinateTable.from_shared(handle)
            assert np.array_equal(view.ids, table.ids)
            view.release()

    def test_empty_table_publishes(self):
        empty = CoordinateTable.from_mbrs([])
        with empty.to_shared() as block:
            view = CoordinateTable.shm_slice(
                block.handle, np.empty(0, dtype=np.int64)
            )
            assert len(view) == 0 and view.dim == empty.dim


def _float64_arrays(value):
    """Every float64 ndarray reachable through tuples/lists/handles."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype == np.float64 else []
    if isinstance(value, (tuple, list)):
        return [found for item in value for found in _float64_arrays(item)]
    return []


class TestRegionPayloads:
    """What crosses the process boundary per region: handles + indices."""

    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    @pytest.mark.parametrize("dedup", ["reference", "partition"])
    @pytest.mark.parametrize("exact", [False, True], ids=["mbr", "exact"])
    def test_chunks_carry_indices_never_coordinates(self, kind, dedup, exact):
        objects = list(clustered_polygons(200, space=50.0, n_clusters=5, seed=3))
        universe = total_mbr(o.mbr for o in objects)
        decomposition = Decomposition.build(universe, kind=kind, n_chunks=4)
        before = _segments()
        slicer = _ColumnarSlicer(objects, decomposition, dedup, exact)
        try:
            payloads = [slicer.chunk(region) for region in decomposition.regions]
            payloads = [payload for payload in payloads if payload is not None]
            assert payloads
            for payload in payloads:
                assert len(payload) == (5 if exact else 4)
                tag, handle, indices, classes = payload[:4]
                assert tag == "shm"
                assert isinstance(handle, SharedTableHandle)
                assert indices.dtype == np.int64 and indices.ndim == 1
                if dedup == "partition":
                    assert classes.dtype == np.int64
                    assert len(classes) == len(indices)
                else:
                    assert classes is None
                if exact:
                    assert isinstance(payload[4], SharedVertexHandle)
                assert _float64_arrays(payload) == []
        finally:
            slicer.close()
        assert _segments() == before


@pytest.mark.parallel
class TestEngineShmLifecycle:
    """Fault injection: the parent must clean up whatever workers do."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    @staticmethod
    def _datasets():
        a = uniform_boxes(120, space=20.0, side_range=(0.5, 2.0), seed=31)
        b = uniform_boxes(150, space=20.0, side_range=(0.5, 2.0), seed=32)
        return list(a), list(b)

    def test_worker_crash_raises_and_frees_segments(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        monkeypatch.setattr(engine, "_run_chunk", _kill_worker)
        before = _segments()
        join = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4)
        with pytest.raises(WorkerCrashError) as crash:
            join.join(objects_a, objects_b)
        # The error carries the engine's statistics: the crash marker
        # is visible to callers.
        stats = crash.value.stats
        assert stats.extra["worker_crashed"] is True
        assert _segments() == before

    def test_engine_recovers_after_crash(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        expected = make_algorithm("TOUCH").join(objects_a, objects_b)
        original = engine._run_chunk
        monkeypatch.setattr(engine, "_run_chunk", _kill_worker)
        with pytest.raises(WorkerCrashError):
            ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4).join(
                objects_a, objects_b
            )
        monkeypatch.setattr(engine, "_run_chunk", original)
        result = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4).join(
            objects_a, objects_b
        )
        assert result.pair_set() == expected.pair_set()

    def test_normal_run_leaves_no_segments(self):
        objects_a, objects_b = self._datasets()
        before = _segments()
        ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4).join(
            objects_a, objects_b
        )
        assert _segments() == before


def _kill_worker(task):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)
