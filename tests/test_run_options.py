"""RunOptions: the one way to configure a join.

Pins the resolution rule of ``run_algorithm`` — explicit ``options=`` >
``RunOptions.from_env()`` (the ``REPRO_*`` variables) > engine default —
plus ``RunOptions.from_env`` validation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.config import DEDUP_MODES, RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.synthetic import uniform_boxes
from repro.service import SpatialQueryService

EPS = 2.5


@pytest.fixture(scope="module")
def pair():
    return (
        uniform_boxes(60, seed=81, space=30.0),
        uniform_boxes(150, seed=82, space=30.0),
    )


class TestRunOptionsObject:
    def test_defaults_are_all_unspecified(self):
        options = RunOptions()
        assert options.workers is None
        assert options.decompose is None
        assert options.dedup is None
        assert options.backend is None
        assert options.reuse_index is None
        assert options.describe() == {}

    def test_fields(self):
        assert [field.name for field in dataclasses.fields(RunOptions)] == [
            "workers",
            "decompose",
            "dedup",
            "backend",
            "reuse_index",
            "max_bytes",
            "geometry",
        ]

    def test_frozen(self):
        options = RunOptions(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 4

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": -1}, "workers must be >= 0"),
            ({"decompose": "hexagons"}, "unknown decompose kind"),
            ({"dedup": "vote"}, "unknown dedup mode"),
            ({"backend": "gpu"}, "unknown backend"),
        ],
    )
    def test_validation_is_eager(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunOptions(**kwargs)

    def test_over_set_fields_win(self):
        base = RunOptions(workers=4, decompose="slabs", backend="object")
        overlay = RunOptions(workers=0, dedup="partition")
        merged = overlay.over(base)
        assert merged == RunOptions(
            workers=0, decompose="slabs", dedup="partition", backend="object"
        )

    def test_over_none_defers(self):
        base = RunOptions(workers=3)
        assert RunOptions().over(base) is base

    def test_describe_reports_set_fields(self):
        options = RunOptions(workers=2, decompose="tiles", reuse_index=True)
        assert options.describe() == {
            "workers": 2,
            "decompose": "tiles",
            "reuse_index": True,
        }

    def test_dedup_modes_match_engine(self):
        from repro.parallel.engine import ParallelChunkedJoin

        assert DEDUP_MODES == ParallelChunkedJoin.DEDUP_MODES


class TestFromEnv:
    def test_unset_environment_is_all_none(self, monkeypatch):
        for name in (
            "REPRO_WORKERS",
            "REPRO_DECOMPOSE",
            "REPRO_DEDUP",
            "REPRO_BACKEND",
        ):
            monkeypatch.delenv(name, raising=False)
        assert RunOptions.from_env() == RunOptions()

    def test_reads_every_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        monkeypatch.setenv("REPRO_DEDUP", "partition")
        monkeypatch.setenv("REPRO_BACKEND", "object")
        assert RunOptions.from_env() == RunOptions(
            workers=3, decompose="tiles", dedup="partition", backend="object"
        )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_WORKERS", "many"),
            ("REPRO_WORKERS", "-2"),
            ("REPRO_DECOMPOSE", "hexagons"),
            ("REPRO_DEDUP", "vote"),
            ("REPRO_BACKEND", "gpu"),
        ],
    )
    def test_junk_values_name_the_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            RunOptions.from_env()


class TestCurrentOptions:
    """What a call without explicit options resolves to: the env layer."""

    def test_default_is_empty(self, monkeypatch):
        for name in ("REPRO_WORKERS", "REPRO_DECOMPOSE", "REPRO_BACKEND"):
            monkeypatch.delenv(name, raising=False)
        assert RunOptions().over(RunOptions.from_env()) == RunOptions()

    def test_env_flows_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        options = RunOptions().over(RunOptions.from_env())
        assert options.workers == 2
        assert options.decompose == "tiles"


class TestRunAlgorithmPrecedence:
    """The options > env > default rule, pinned pairwise on real joins.

    ``workers`` selects the engine, and the engine stamps itself into
    ``extra`` (``n_chunks`` present iff the multiprocess engine ran), so
    each layer's victory is observable from the record.
    """

    @pytest.mark.parallel
    def test_options_object_selects_the_engine(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(workers=2, decompose="tiles")
        )
        assert record.extra["workers"] == 2
        assert record.extra["decompose"] == "tiles"

    @pytest.mark.parallel
    def test_options_object_beats_environment(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=0))
        assert "n_chunks" not in record.extra  # sequential path ran

    @pytest.mark.parallel
    def test_environment_still_applies_when_unspecified(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS)
        assert record.extra["workers"] == 2
        assert record.extra["decompose"] == "tiles"

    def test_options_backend_feeds_algorithm(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(backend="object")
        )
        assert record.extra["backend"] == "object"

    def test_explicit_backend_override_beats_options(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH",
            a,
            b,
            EPS,
            options=RunOptions(backend="object"),
            backend="columnar",
        )
        assert record.extra["backend"] == "columnar"

    def test_options_reuse_index_routes_through_service(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=2)
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(reuse_index=service)
        )
        assert record.extra["cache"] == "cold"
        again = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(reuse_index=service)
        )
        assert again.extra["cache"] == "warm"
        assert again.result_pairs == record.result_pairs

    def test_reuse_index_with_workers_still_rejected(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="cannot be combined"):
            run_algorithm(
                "TOUCH",
                a,
                b,
                EPS,
                options=RunOptions(workers=2, reuse_index=True),
            )
