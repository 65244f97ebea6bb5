"""Seeded input generation owned by the benchmark.

Coordinates come from the benchmark's own generators, drawn from one
``numpy`` generator per (seed, stream) so every dataset of a run is
reproducible from ``--seed`` alone.  The program only sees the
finished objects.  Generation follows the paper's synthetic workloads
(§6.2): boxes with sides uniform in [0, 1]; *uniform* positions, or
*clustered* around up to 100 centres with a Gaussian offset of
0.22 · space.  Polygons are star-shaped rings and linestrings random
walks, both bounded to unit extent like the boxes.

Each generator returns plain arrays; :func:`boxes_dataset` and
:func:`shapes_dataset` materialise them into the program's objects,
which is the part of set-up the program itself pays for.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_for",
    "uniform_box_arrays",
    "clustered_box_arrays",
    "polygon_rings",
    "linestring_walks",
    "boxes_dataset",
    "shapes_dataset",
    "nearest_batches",
    "box_space",
]

def box_space(n_a: int) -> float:
    """Universe edge that keeps the paper's density at ``n_a`` build objects:
    1000 · (n_a / 1.6M)^(1/3), the rule the repo's scales use."""
    return 1000.0 * (n_a / 1_600_000) ** (1.0 / 3.0)


_STREAMS = {"a": 1, "b": 2, "batches": 3}


def rng_for(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Independent generator for one named input stream of a seed."""
    return np.random.default_rng([int(seed), _STREAMS[stream], int(index)])


def uniform_box_arrays(rng, n: int, space: float, dim: int = 3):
    sides = rng.uniform(0.0, 1.0, size=(n, dim))
    lows = rng.uniform(0.0, space, size=(n, dim))
    lows = np.clip(lows, 0.0, space - sides)
    return lows, lows + sides


def _cluster_centres(rng, n: int, space: float, dim: int):
    centres = rng.uniform(0.0, space, size=(100, dim))
    membership = rng.integers(0, 100, size=n)
    return centres[membership] + rng.normal(0.0, 0.22 * space, size=(n, dim))


def clustered_box_arrays(rng, n: int, space: float, dim: int = 3):
    sides = rng.uniform(0.0, 1.0, size=(n, dim))
    lows = _cluster_centres(rng, n, space, dim) - sides / 2.0
    lows = np.clip(lows, 0.0, space - sides)
    return lows, lows + sides


def polygon_rings(rng, n: int, space: float) -> list[np.ndarray]:
    """Star-shaped rings of 3-12 vertices, radii in [0.1, 0.5]."""
    centres = np.clip(_cluster_centres(rng, n, space, 2), 0.0, space)
    counts = rng.integers(3, 13, size=n)
    rings = []
    for i in range(n):
        k = int(counts[i])
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        radii = rng.uniform(0.1, 0.5, size=k)
        rings.append(
            np.column_stack(
                (centres[i, 0] + radii * np.cos(angles), centres[i, 1] + radii * np.sin(angles))
            )
        )
    return rings


def linestring_walks(rng, n: int, space: float) -> list[np.ndarray]:
    """Random walks of 1-8 steps of length 0.04-0.12."""
    starts = np.clip(_cluster_centres(rng, n, space, 2), 0.0, space)
    counts = rng.integers(1, 9, size=n)
    walks = []
    for i in range(n):
        k = int(counts[i])
        headings = rng.uniform(0.0, 2.0 * np.pi, size=k)
        steps = rng.uniform(0.04, 0.12, size=k)
        xs = np.concatenate(([0.0], np.cumsum(steps * np.cos(headings)))) + starts[i, 0]
        ys = np.concatenate(([0.0], np.cumsum(steps * np.sin(headings)))) + starts[i, 1]
        walks.append(np.column_stack((xs, ys)))
    return walks


def boxes_dataset(lows: np.ndarray, highs: np.ndarray, name: str, space: float):
    """The program's :class:`Dataset` of boxes with oids 0..n-1."""
    from repro.datasets.base import Dataset
    from repro.geometry.mbr import MBR
    from repro.geometry.objects import SpatialObject

    dim = lows.shape[1]
    objects = [
        SpatialObject(i, MBR(lo, hi))
        for i, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist()))
    ]
    return Dataset(objects, name=name, universe=MBR((0.0,) * dim, (space,) * dim))


def shapes_dataset(vertex_arrays: list[np.ndarray], kind: str, name: str):
    """The program's :class:`Dataset` of polygons or linestrings."""
    from repro.datasets.base import Dataset
    from repro.geometry.objects import SpatialObject
    from repro.geometry.shapes import LineString, Polygon

    cls = {"polygon": Polygon, "linestring": LineString}[kind]
    objects = []
    for i, vertices in enumerate(vertex_arrays):
        shape = cls([tuple(v) for v in vertices.tolist()], oid=i)
        objects.append(SpatialObject(i, shape.mbr(), shape))
    return Dataset(objects, name=name)


def nearest_batches(rng, lows: np.ndarray, highs: np.ndarray, n_batches: int, size: int):
    """Row indices of ``n_batches`` batches: each the ``size`` boxes whose
    centres lie nearest a seeded point (the centre of a random box)."""
    centres = (lows + highs) / 2.0
    batches = []
    for _ in range(n_batches):
        point = centres[rng.integers(len(centres))]
        dist = ((centres - point) ** 2).sum(axis=1)
        rows = np.argpartition(dist, size - 1)[:size]
        batches.append(np.sort(rows))
    return batches
