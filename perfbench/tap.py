"""Read the pair list behind a ``run_algorithm`` call.

``run_algorithm`` returns a :class:`RunRecord`, which carries counts but
not the pairs, so the benchmark cannot check its output from the return
value alone.  :class:`PairTap` wraps the two public functions every
execution path of the runner ends in — ``SpatialJoinAlgorithm.join``
(the filter join) and ``RefinePipeline.refine`` (the exact stage) — and
keeps the output of the outermost call of each.  The wrappers only
store a reference, so they cost a function call per join.  The tap is
installed for the duration of a ``with`` block and removed after it.
"""

from __future__ import annotations

__all__ = ["PairTap"]


class PairTap:
    def __init__(self) -> None:
        self._depth = 0
        self._saved = None
        self.joined = None
        self.refined = None

    def __enter__(self) -> "PairTap":
        from repro.joins.base import SpatialJoinAlgorithm
        from repro.refine import RefinePipeline

        tap = self
        original_join = SpatialJoinAlgorithm.join
        original_refine = RefinePipeline.refine

        def join(algorithm, dataset_a, dataset_b):
            tap._depth += 1
            try:
                result = original_join(algorithm, dataset_a, dataset_b)
            finally:
                tap._depth -= 1
            if tap._depth == 0:
                tap.joined = result.pairs
            return result

        def refine(pipeline, pairs, objects_a, objects_b, stats=None):
            kept = original_refine(pipeline, pairs, objects_a, objects_b, stats=stats)
            if tap._depth == 0:
                tap.refined = kept
            return kept

        self._saved = (original_join, original_refine)
        SpatialJoinAlgorithm.join = join
        RefinePipeline.refine = refine
        return self

    def __exit__(self, *exc_info) -> None:
        if self._saved is None:
            return
        from repro.joins.base import SpatialJoinAlgorithm
        from repro.refine import RefinePipeline

        SpatialJoinAlgorithm.join, RefinePipeline.refine = self._saved
        self._saved = None

    def take(self) -> tuple[list | None, list | None]:
        """``(filter pairs, refined pairs)`` of the last call; clears both."""
        out = (self.joined, self.refined)
        self.joined = self.refined = None
        return out
