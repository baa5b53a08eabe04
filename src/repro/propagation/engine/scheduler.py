"""The scheduler layer: sharding the k² branch-pair chase of union views.

The SPCU decision procedure (Theorem 3.1/3.5) examines every *ordered
pair* of union branches — ``k²`` coupled tableaux per query shape for a
``k``-branch view.  Through PR 3 that loop ran sequentially inside one
``find_counterexample`` call, so a wide union serialized its dominant
cost even on a multi-core worker (the ``jobs`` fan-out parallelizes
across *queries*, not within one query's pair space).

This module partitions the pair space into deterministic **shards**:

- :func:`plan_pairs` — the ``k²`` ordered pairs dealt round-robin into
  ``shards`` strides, diagonal pairs first so the equality-form work
  they carry spreads across shards.  Shard contents depend only on
  ``(k, shards)`` — never on timing.
- :func:`shard_check_payloads` / :func:`_shard_check_worker` — one
  payload per non-empty shard, answering *every* miss query of the batch
  restricted to that shard's pairs.  Workers run through the engine's
  existing thread/process pool: each shard is submitted as its own task
  and idle workers pull the next unstarted shard from the executor
  queue — work-stealing-style dynamic assignment, so one slow shard
  does not idle the rest of the pool.  Each worker shares materialized
  /coupled/chased tableaux *within* its shard across all queries via a
  private :class:`~repro.propagation.check.BranchPairCache`, and
  reports its tableau counters back for merge into the dispatching
  engine's :class:`~repro.propagation.engine.EngineStats`.
- :func:`combine_verdicts` — ``Sigma |=_V phi`` holds iff **no** shard
  finds a violating pair, so verdicts are invariant in the shard count
  (``tests/test_incremental.py`` pins ``shards=1`` vs ``shards>1``
  equality for verdicts and covers).

The engine drives this for cache-miss checks on multi-branch SPCU views
when ``shards > 1``; SPCU *cover* candidate verification funnels through
the same ``check_many`` and therefore shards for free.  The
``shard_index`` knob makes one engine evaluate a single shard (for
scale-out across processes/machines): its verdicts mean "no violation
in shard ``i``" — sound for refutation, partial for propagation — so
they are memoized under shard-scoped keys and never persisted.
"""

from __future__ import annotations

from typing import Sequence

from ...core.cfd import CFD
from ..check import (
    BranchPairCache,
    DependencyLike,
    ViewLike,
    find_counterexample,
)

__all__ = [
    "WORKER_RBR_FIELDS",
    "WORKER_STAT_FIELDS",
    "combine_verdicts",
    "plan_pairs",
    "shard_check_payloads",
]

Pair = tuple[int, int]

#: The worker-stats protocol: the tableau counters every pool worker —
#: miss-chunk engines and shard workers alike — reports back for merge
#: into the dispatching engine's stats, plus the RBR sub-block.  The
#: engine's ``_worker_stats``/``_merge_worker_stats`` and the shard
#: worker below all derive their dict shape from these two tuples, so
#: adding a counter cannot desynchronize the paths.
WORKER_STAT_FIELDS = (
    "chase_invocations",
    "coupled_hits",
    "coupled_misses",
    "chased_hits",
    "chased_misses",
)
WORKER_RBR_FIELDS = (
    "resolvent_pairs",
    "resolvents_kept",
    "drops",
    "mincover_passes",
)


def plan_pairs(num_branches: int, shards: int) -> list[tuple[Pair, ...]]:
    """Deal the ``k²`` ordered branch pairs into ``shards`` strides.

    The deal order is *diagonal-first*: the ``k`` diagonal pairs, then
    the off-diagonal pairs in row-major order, strided round-robin.
    Diagonal pairs also carry the equality-form conjunct work (a shard
    runs branch ``i``'s equality chases iff it owns ``(i, i)``), so
    they must spread across shards; a plain row-major stride parks
    every diagonal in shard 0 whenever ``shards`` divides ``k + 1``
    (diagonal ``(i, i)`` sits at row-major index ``i * (k + 1)``),
    serializing that work in one straggler.

    Returns exactly ``shards`` tuples (trailing ones empty when
    ``shards > k²``); deterministic in ``(num_branches, shards)``.
    """
    if num_branches < 1:
        raise ValueError(f"num_branches must be positive, got {num_branches}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    ordered = [(i, i) for i in range(num_branches)] + [
        (i, j)
        for i in range(num_branches)
        for j in range(num_branches)
        if i != j
    ]
    return [tuple(ordered[s::shards]) for s in range(shards)]


def shard_check_payloads(
    sigma: Sequence[CFD],
    view: ViewLike,
    phis: Sequence[DependencyLike],
    max_instantiations: int | None,
    assume_infinite: bool,
    plans: Sequence[tuple[Pair, ...]],
    kernel: str | None = None,
) -> list[tuple]:
    """One worker payload per shard plan (plain data: picklable).

    Callers filter empty plans first (the engine's ``live_plans``), so
    payloads align one-to-one with the plans given — which
    :func:`combine_verdicts` and the shard-task counters rely on.
    """
    return [
        (
            list(sigma),
            view,
            list(phis),
            plan,
            max_instantiations,
            assume_infinite,
            kernel,
        )
        for plan in plans
    ]


def _shard_check_worker(payload: tuple) -> tuple[list[bool], dict]:
    """Find violations for every query within one shard's pair space.

    Module-level (and plain-data payloads) so it pickles into a process
    pool; a thread pool calls it directly.  Returns per-query *violation*
    flags — ``True`` means this shard refutes ``Sigma |=_V phi`` — plus
    the shard's tableau counters for stats merge-back.
    """
    sigma, view, phis, pairs, max_instantiations, assume_infinite, kernel = payload
    cache = BranchPairCache(view, enabled=True)
    violations = [
        find_counterexample(
            sigma,
            view,
            phi,
            max_instantiations=max_instantiations,
            assume_infinite=assume_infinite,
            cache=cache,
            pairs=pairs,
            kernel=kernel,
            witness=False,
        )
        is not None
        for phi in phis
    ]
    # BranchPairCache carries every counter in WORKER_STAT_FIELDS by the
    # same name; shard workers run no RBR, so that block is zeroed.
    stats = {name: getattr(cache, name) for name in WORKER_STAT_FIELDS}
    stats["rbr"] = {name: 0 for name in WORKER_RBR_FIELDS}
    return violations, stats


def combine_verdicts(shard_violations: Sequence[Sequence[bool]]) -> list[bool]:
    """Merge per-shard violation flags into final verdicts.

    ``phi`` is propagated iff no shard found a violating branch pair —
    the row-wise NOR of the shard results, which makes the combined
    verdict independent of how the pair space was dealt.
    """
    if not shard_violations:
        return []
    width = len(shard_violations[0])
    return [
        not any(shard[idx] for shard in shard_violations)
        for idx in range(width)
    ]
