"""Disk spill store for over-budget join partitions.

When the memory governor (:mod:`repro.memory.budgeted`) decides a
partition does not fit the budget, the
:class:`~repro.geometry.columnar.CoordinateTable` row slices of both
datasets' members are written to a private temporary directory as one
``.npy`` file per partition — per side, the float64 ``(n, 2 * D)``
coordinates followed by the int64 ids — and the in-memory member lists
are dropped.  Reading a partition back **consumes** it: the file is
deleted as soon as the two tables are rematerialised, so a store holds
each spilled partition at most once and the directory empties as the
join drains its spill queue.

Failure handling follows the PR 7 shared-memory hygiene rules: any I/O
problem while reading a partition back — the file deleted underneath
us, truncation, corruption (a row with ``hi < lo`` included), a foreign
(e.g. pickled) payload — surfaces
as :class:`SpillError` naming the partition and path (never a bare
``FileNotFoundError`` or ``ValueError``), and
:meth:`SpillStore.close` removes the directory unconditionally, so both
successful joins and crashes leave no spill files on disk.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.geometry.columnar import CoordinateTable

__all__ = ["SpillError", "SpilledPartition", "SpillStore"]


class SpillError(RuntimeError):
    """A spilled partition could not be written or read back."""


class SpilledPartition:
    """Handle to one partition resident on disk instead of in memory."""

    __slots__ = ("pid", "path", "n_a", "n_b", "file_bytes")

    def __init__(self, pid: int, path: str, n_a: int, n_b: int, file_bytes: int) -> None:
        self.pid = pid
        self.path = path
        self.n_a = n_a
        self.n_b = n_b
        self.file_bytes = file_bytes

    def __repr__(self) -> str:
        return (
            f"SpilledPartition(pid={self.pid}, n_a={self.n_a}, "
            f"n_b={self.n_b}, file_bytes={self.file_bytes})"
        )


class SpillStore:
    """Owns one temporary directory of spilled partition row-slices.

    Use as a context manager (or call :meth:`close` in a ``finally``):
    the directory is created lazily in the constructor and removed —
    with every remaining file — on close, success or crash alike.
    """

    def __init__(self, root: str | None = None) -> None:
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=root)
        self.bytes_written = 0
        self.bytes_read = 0
        self.partitions_written = 0
        self._live = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Remove the spill directory and everything in it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def live_partitions(self) -> int:
        """Partitions currently on disk (written, not yet read back)."""
        return self._live

    # -- spill / unspill -----------------------------------------------
    def write(
        self, pid: int, table_a: CoordinateTable, table_b: CoordinateTable
    ) -> SpilledPartition:
        """Spill one partition's row tables; the caller drops its references."""
        if self._closed:
            raise SpillError("spill store is closed")
        path = os.path.join(self.directory, f"part{pid:05d}.npy")
        try:
            with open(path, "wb") as fh:
                for table in (table_a, table_b):
                    np.save(fh, table.coords, allow_pickle=False)
                    np.save(fh, table.ids, allow_pickle=False)
            file_bytes = os.path.getsize(path)
        except OSError as exc:
            raise SpillError(f"failed to spill partition {pid} to {path}: {exc}") from exc
        self.bytes_written += file_bytes
        self.partitions_written += 1
        self._live += 1
        return SpilledPartition(pid, path, len(table_a), len(table_b), file_bytes)

    def read(
        self, partition: SpilledPartition
    ) -> tuple[CoordinateTable, CoordinateTable]:
        """Unspill one partition's row tables — and delete its file (read-once)."""
        try:
            with open(partition.path, "rb") as fh:
                tables = []
                for _ in range(2):
                    coords = np.load(fh, allow_pickle=False)
                    ids = np.load(fh, allow_pickle=False)
                    table = CoordinateTable(coords, ids)
                    table.check_boxes()
                    tables.append(table)
            table_a, table_b = tables
        except (OSError, ValueError, EOFError) as exc:
            raise SpillError(
                f"failed to read spilled partition {partition.pid} back from "
                f"{partition.path}: {exc}"
            ) from exc
        if len(table_a) != partition.n_a or len(table_b) != partition.n_b:
            raise SpillError(
                f"spilled partition {partition.pid} at {partition.path} is "
                f"truncated: expected {partition.n_a}x{partition.n_b} rows, "
                f"got {len(table_a)}x{len(table_b)}"
            )
        self.bytes_read += partition.file_bytes
        self._live -= 1
        try:
            os.unlink(partition.path)
        except OSError:
            pass
        return table_a, table_b
