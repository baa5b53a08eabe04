"""Seeded inputs of the two workloads.

Each workload has one fixed *setting* and a fixed pool of work; the
``--seed`` argument only orders that work.  What a seed drew before moved
cost between seeds more than timing noise does:

- a Fig 5 view drawn per seed moved the p50 cover time by a fifth;
- ``generate_trace`` settings drawn per seed moved edit-stream
  throughput by a factor of two (a per-trace coefficient of variation of
  0.36 over sixteen trace seeds);
- with the setting fixed, fresh Sigma sets per seed still moved the
  edit stream's chase count by a quarter between seeds (39 738 to
  50 435 chases over 900 edits).

So every run does the same work: ``paper-cover`` covers one fixed pool
of Sigma sets in a seeded order, and ``edit-stream`` toggles a fixed set
of CFD replacements in a seeded order.  The paper likewise varies Sigma
under a fixed view, as ``benchmarks/conftest.py`` does.

Seeded streams are string-seeded ``random.Random`` instances, so inputs
do not depend on the hash seed.  The program receives only these
generated inputs.
"""

from __future__ import annotations

import random

from repro.core.cfd import CFD
from repro.core.values import WILDCARD, is_wildcard
from repro.generators import random_cfd, random_cfds, random_schema, random_spc_view
from repro.io import dependencies_from_json, dependency_to_json
from repro.streaming import generate_trace, parse_trace

#: The paper's Section 5 defaults (Fig 5): |Y|=25, |F|=10, |Ec|=4 over a
#: 10-relation schema, block projection, var%=50, LHS sizes 3..9.
PAPER_RELATIONS = 10
PAPER_Y, PAPER_F, PAPER_EC = 25, 10, 4
VAR_PCT = 0.5
MIN_LHS, MAX_LHS = 3, 9
#: The seed of the fixed Fig 5 setting (``benchmarks/conftest.py``'s SEED).
SETTING_SEED = 20080824

#: Constants for check targets: a small pool, so targets meet the
#: constants of Sigma and of the view's selections often enough to matter.
TARGET_CONSTANTS = ("1", "2", "3", "7")


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")


def paper_setting():
    """The Fig 5 schema and SPC view, seeded as ``benchmarks/conftest.py`` does."""
    schema = random_schema(random.Random(SETTING_SEED), num_relations=PAPER_RELATIONS)
    view = random_spc_view(
        random.Random(SETTING_SEED + 7919 * PAPER_Y + 31 * PAPER_F + PAPER_EC),
        schema,
        num_projected=PAPER_Y,
        num_selections=PAPER_F,
        num_atoms=PAPER_EC,
        block_projection=True,
    )
    return schema, view


def paper_sigma(seed: int, schema, size: int, stream: str) -> list[CFD]:
    return random_cfds(
        _rng(seed, stream),
        schema,
        size,
        max_lhs=MAX_LHS,
        min_lhs=MIN_LHS,
        var_pct=VAR_PCT,
    )


#: The seed stream of the fixed Sigma pool of ``paper-cover``.
POOL_SEED = SETTING_SEED


def sigma_pool(schema, size: int, count: int) -> list[list[CFD]]:
    """*count* distinct Sigma sets of *size* CFDs (one per cover op).

    The pool is the same for every ``--seed`` and prefix-stable in
    *count*: asking for more sets extends it without changing its head.
    """
    return [paper_sigma(POOL_SEED, schema, size, f"pool-{k}") for k in range(count)]


def op_order(seed: int, count: int) -> list[int]:
    """The seeded order in which a run visits pool entries ``0..count-1``."""
    order = list(range(count))
    _rng(seed, "order").shuffle(order)
    return order


def _target(rng: random.Random, view, max_lhs: int) -> CFD:
    """A random check target over the view's attributes."""
    projection = list(view.projection)
    lhs_size = rng.randint(1, min(max_lhs, len(projection) - 1))
    chosen = rng.sample(projection, lhs_size + 1)
    lhs = {
        attr: WILDCARD if rng.random() < 0.6 else rng.choice(TARGET_CONSTANTS)
        for attr in chosen[:-1]
    }
    rhs = WILDCARD if rng.random() < 0.6 else rng.choice(TARGET_CONSTANTS)
    return CFD(view.name, lhs, {chosen[-1]: rhs})


#: The edit stream's setting: a ``generate_trace`` schema, initial Sigma
#: and 6-branch SPCU union over 8 relations, from one fixed trace seed.
STREAM_SETTING_SEED = 17
STREAM_RELATIONS = 8
STREAM_BRANCHES = 6


def _tightened(rng: random.Random, phi: CFD) -> CFD:
    """*phi* with one wildcard LHS position bound to a fresh constant."""
    wildcards = sorted(attr for attr, entry in phi.lhs if is_wildcard(entry))
    lhs = dict(phi.lhs)
    lhs[rng.choice(wildcards)] = rng.randint(1, 100000)
    return CFD(phi.relation, lhs, dict(phi.rhs))


def _alternative(rng: random.Random, schema, phi: CFD, taken: list[CFD]) -> tuple[str, CFD]:
    """A replacement for *phi* on its relation: a narrower pattern of
    itself (``tighten``) or a fresh random CFD (``swap``), not in *taken*."""
    new = None
    kind = rng.choice(("swap", "tighten"))
    if kind == "tighten" and any(is_wildcard(e) for _, e in phi.lhs):
        new = _tightened(rng, phi)
    while new is None or new in taken:
        kind = "swap"
        new = random_cfd(rng, schema.relation(phi.relation), max_lhs=2, min_lhs=1, var_pct=0.5)
    return kind, new


#: Pairs of rounds in the edit stream's fixed cycle.
CYCLE_PAIRS = 16


def _setting_trace() -> dict:
    return generate_trace(
        seed=STREAM_SETTING_SEED,
        edits=0,
        num_relations=STREAM_RELATIONS,
        num_branches=STREAM_BRANCHES,
    )


def edit_cycle() -> list[dict]:
    """The ops of the edit stream's fixed cycle, from the initial Sigma.

    The setting fixes one replacement per dependency of the initial
    Sigma, and two check targets per dependency.  An edit toggles one
    dependency between its original and its replacement, so |Sigma| and
    its spread over relations stay put and the per-op cost is
    stationary.  Each edit is followed by a check of that dependency's
    two targets and a cover of the union view.  The cycle is
    ``CYCLE_PAIRS`` pairs of rounds: the first round of a pair toggles
    every dependency to its replacement, the second toggles each back,
    each round in its own fixed order.  Every pair therefore starts from
    the initial Sigma, and its answers do not depend on where a run
    enters the cycle.
    """
    schema, sigma, views, _ = parse_trace(_setting_trace())
    (view,) = views.values()
    setting = _rng(STREAM_SETTING_SEED, "toggles")
    slots = list(sigma)
    taken = list(sigma)
    replacements, targets = [], []
    for phi in slots:
        kind, new = _alternative(setting, schema, phi, taken)
        taken.append(new)
        replacements.append((kind, new))
        targets.append([dependency_to_json(_target(setting, view, 2)) for _ in range(2)])
    ops = []
    for _ in range(CYCLE_PAIRS):
        for back in (False, True):
            order = list(range(len(slots)))
            setting.shuffle(order)
            for i in order:
                kind, new = replacements[i]
                old, new = (new, slots[i]) if back else (slots[i], new)
                ops.append(
                    {
                        "op": "edit",
                        "kind": "revert" if back else kind,
                        "relation": old.relation,
                        "add": [dependency_to_json(new)],
                        "remove": [dependency_to_json(old)],
                    }
                )
                ops.append({"op": "check", "view": view.name, "targets": targets[i]})
                ops.append({"op": "cover", "view": view.name})
    return ops


def edit_trace(seed: int, edits: int) -> tuple[dict, int]:
    """A ``repro-trace/1`` document of at least *edits* edits, and the
    cycle position of its first op.

    The run enters the fixed cycle at a seeded pair and plays it round
    and round, for a whole number of cycles: every seed issues the same
    ops, in a rotated order.
    """
    cycle = edit_cycle()
    pair_ops = len(cycle) // CYCLE_PAIRS
    offset = _rng(seed, "edits").randrange(CYCLE_PAIRS) * pair_ops
    cycle_edits = len(cycle) // 3
    laps = max(1, round(edits / cycle_edits))
    ops = (cycle[offset:] + cycle[:offset]) * laps
    base = _setting_trace()
    trace = {**base, "seed": seed, "edits": laps * cycle_edits, "ops_per_edit": 2, "ops": ops}
    return trace, offset


def trace_requests(trace: dict) -> list[tuple[str, object]]:
    """``(kind, typed request)`` per trace op, parsed before any timing."""
    from repro.api import CheckRequest, CoverRequest, UpdateSigmaRequest

    out = []
    for op in trace["ops"]:
        if op["op"] == "edit":
            request = UpdateSigmaRequest(
                name="default",
                add=dependencies_from_json(op["add"]),
                remove=dependencies_from_json(op["remove"]),
            )
        elif op["op"] == "check":
            request = CheckRequest(
                view=op["view"], targets=dependencies_from_json(op["targets"])
            )
        else:
            request = CoverRequest(view=op["view"])
        out.append((op["op"], request))
    return out
