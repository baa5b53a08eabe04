"""Differential tests for the bit-packed kernel (``repro.kernel``).

Every kernel component is tested against the baseline it replaces, on
seeded random streams so failures reproduce:

- ``bitset_closure`` against the textbook ``_closure_fixpoint``,
- ``PackedEquivalenceClasses`` against ``EquivalenceClasses`` on random
  operation streams (including the ``BottomEQ`` witnesses),
- a ``kernel="bitset"`` engine against a ``kernel="baseline"`` engine on
  generator workloads — verdicts, covers and *byte-identical*
  counterexamples,
- the automatic fallback: a construct the packed runner cannot intern
  (an unhashable view constant) flips it unusable and the query is
  re-answered by the baseline,
- packed implication: ``min_cover(kernel="bitset")`` against the
  baseline ``min_cover`` (byte-identical covers) on the Fig 5 pool,
  constant-heavy streams and self-constant CFDs, single questions
  against ``core.implication.implies``, and the fallback cases
  (equality-form Sigma, finite-domain schema).
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CFD
from repro import io as repro_io
from repro.core.domains import finite
from repro.core.fd import FD, _closure_fixpoint
from repro.core.implication import implies
from repro.core.mincover import min_cover
from repro.core.schema import Attribute, RelationSchema
from repro.core.values import WILDCARD, is_const, is_special, is_wildcard
from repro.generators import random_cfds, random_schema, random_spcu_view
from repro.kernel import (
    DEFAULT_KERNEL,
    KERNELS,
    PackedEquivalenceClasses,
    bitset_closure,
    resolve_kernel,
    validate_kernel,
)
from repro.kernel.implication import ImplicationProgram, packed_min_cover_relation
from repro.propagation.cover import prop_cfd_spc_report
from repro.propagation.eqclasses import BottomEQ, EquivalenceClasses
from repro.propagation.rbr import rbr
from repro.propagation.engine import PropagationEngine

SEEDS = [0, 1, 2, 3]

ATTRS = [f"A{i}" for i in range(8)]


# ----------------------------------------------------------------------
# Attribute closure.
# ----------------------------------------------------------------------


def _random_fds(rng: random.Random, count: int) -> list[FD]:
    out = []
    for _ in range(count):
        lhs = tuple(rng.sample(ATTRS, rng.randint(1, 3)))
        rhs = tuple(rng.sample(ATTRS, rng.randint(1, 2)))
        out.append(FD("R", lhs, rhs))
    return out


class TestBitsetClosure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_fixpoint_on_random_streams(self, seed):
        rng = random.Random(4100 + seed)
        for _ in range(50):
            fds = frozenset(_random_fds(rng, rng.randint(0, 8)))
            attrs = frozenset(rng.sample(ATTRS, rng.randint(0, len(ATTRS))))
            assert bitset_closure(attrs, fds) == _closure_fixpoint(attrs, fds)

    def test_attrs_outside_every_fd(self):
        fds = frozenset([FD("R", ("A0",), ("A1",))])
        got = bitset_closure(frozenset({"Z", "A0"}), fds)
        assert got == frozenset({"Z", "A0", "A1"})

    def test_empty_inputs(self):
        assert bitset_closure(frozenset(), frozenset()) == frozenset()


# ----------------------------------------------------------------------
# Packed equivalence classes.
# ----------------------------------------------------------------------


def _bottom_equal(a, b) -> bool:
    if isinstance(a, BottomEQ) != isinstance(b, BottomEQ):
        return False
    if not isinstance(a, BottomEQ):
        return a is None and b is None
    return a.attribute == b.attribute and a.values == b.values


class TestPackedEquivalenceClasses:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_baseline_on_random_op_streams(self, seed):
        rng = random.Random(4200 + seed)
        attrs = ATTRS[: rng.randint(3, len(ATTRS))]
        base = EquivalenceClasses(attrs)
        packed = PackedEquivalenceClasses(attrs)
        for _ in range(120):
            op = rng.random()
            a, b = rng.choice(attrs), rng.choice(attrs)
            if op < 0.45:
                assert _bottom_equal(packed.union(a, b), base.union(a, b))
            elif op < 0.7:
                value = str(rng.randint(1, 3))
                assert _bottom_equal(
                    packed.set_key(a, value), base.set_key(a, value)
                )
            else:
                assert packed.find(a) == base.find(a)
                assert packed.same(a, b) == base.same(a, b)
                assert packed.key(a) == base.key(a)
                assert packed.has_key(a) == base.has_key(a)
        assert packed.classes() == base.classes()
        prefer = rng.sample(attrs, rng.randint(1, len(attrs)))
        for attr in attrs:
            assert packed.representative(attr, prefer) == base.representative(
                attr, prefer
            )

    def test_merge_direction_names_the_root(self):
        packed = PackedEquivalenceClasses(["X", "Y"])
        base = EquivalenceClasses(["X", "Y"])
        packed.union("Y", "X")
        base.union("Y", "X")
        assert packed.find("X") == base.find("X") == "Y"


# ----------------------------------------------------------------------
# Kernel selection.
# ----------------------------------------------------------------------


class TestConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == DEFAULT_KERNEL == "bitset"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "baseline")
        assert resolve_kernel() == "baseline"
        # An explicit value wins over the environment.
        assert resolve_kernel("bitset") == "bitset"

    def test_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown kernel"):
            validate_kernel("turbo")
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel()

    def test_engine_resolves_and_validates(self):
        assert PropagationEngine(kernel="baseline").kernel == "baseline"
        with pytest.raises(ValueError, match="unknown kernel"):
            PropagationEngine(kernel="turbo")

    def test_kernel_is_not_a_memo_setting(self):
        # Answer-identical kernels share warm lines: the kernel must not
        # enter the memo/persist key material.
        for name in KERNELS:
            engine = PropagationEngine(kernel=name)
            assert engine._memo_settings() == PropagationEngine()._memo_settings()


# ----------------------------------------------------------------------
# Engine-level differential: packed chase vs the baseline.
# ----------------------------------------------------------------------


def _view_cfds(rng: random.Random, view, sigma, count: int):
    """Candidate view CFDs biased toward constants that interact."""
    pool = [str(v) for v in range(1, 5)]
    for phi in sigma:
        for _, entry in phi.lhs + phi.rhs:
            if not is_wildcard(entry):
                pool.append(entry.value)
    projection = list(view.branches[0].projection)
    out = []
    for _ in range(count):
        lhs_size = rng.randint(1, min(2, len(projection) - 1))
        chosen = rng.sample(projection, lhs_size + 1)

        def entry():
            return WILDCARD if rng.random() < 0.6 else rng.choice(pool)

        out.append(
            CFD(
                view.name,
                {a: entry() for a in chosen[:-1]},
                {chosen[-1]: entry()},
            )
        )
    return out


def _workload(seed: int):
    rng = random.Random(4300 + seed)
    schema = random_schema(rng, num_relations=3, min_attributes=4, max_attributes=6)
    sigma = random_cfds(rng, schema, 8, max_lhs=2, min_lhs=1, var_pct=0.5)
    view = random_spcu_view(
        rng,
        schema,
        num_branches=rng.randint(2, 3),
        num_projected=5,
        num_selections=2,
        num_atoms=2,
    )
    phis = _view_cfds(rng, view, sigma, 10)
    return sigma, view, phis


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_agree_on_verdicts_and_witnesses(seed):
    sigma, view, phis = _workload(seed)
    bitset = PropagationEngine(kernel="bitset")
    baseline = PropagationEngine(kernel="baseline")
    got = bitset.check_many(sigma, view, phis)
    want = baseline.check_many(sigma, view, phis)
    assert got == want
    for phi, verdict in zip(phis, want):
        if verdict:
            continue
        packed = bitset.find_counterexample(sigma, view, phi)
        plain = baseline.find_counterexample(sigma, view, phi)
        # Byte-identical on the wire: the same violating pair and the
        # same serialized database (fresh placeholder *objects* per
        # instantiation never compare equal in memory).
        assert packed.branch_pair == plain.branch_pair
        assert json.dumps(
            repro_io.instance_to_json(packed.database), sort_keys=True
        ) == json.dumps(
            repro_io.instance_to_json(plain.database), sort_keys=True
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_agree_on_covers(seed):
    sigma, view, _ = _workload(seed)
    bitset = PropagationEngine(kernel="bitset")
    baseline = PropagationEngine(kernel="baseline")
    assert bitset.cover(sigma, view) == baseline.cover(sigma, view)


def test_kernel_engine_still_counts_chases():
    """The packed path mirrors the tableau counters the stats surface."""
    sigma, view, phis = _workload(0)
    engine = PropagationEngine(kernel="bitset")
    engine.check_many(sigma, view, phis)
    stats = engine.stats
    assert stats.chase_invocations >= 0
    assert stats.coupled_misses >= stats.coupled_hits * 0  # counters exist
    # Closure-memo counters (PR 9 satellite) are surfaced too.
    assert stats.closure_hits >= 0 and stats.closure_misses >= 0
    assert "closure=" in repr(stats)


def test_kernel_refutations_share_the_chase_like_the_baseline():
    """A refuted query's verdict needs no witness: the packed runner's
    outcome per (pair, LHS) serves every RHS, so the bitset engine runs
    no more chases than the baseline kernel, and a witness request still
    gets the baseline's database."""
    from repro.algebra.spc import RelationAtom, SPCView
    from repro.core.schema import DatabaseSchema
    from repro.propagation.closure_baseline import exponential_family

    n = 4
    schema, fds, projection = exponential_family(n)
    view = SPCView(
        "V",
        DatabaseSchema([schema]),
        [RelationAtom("R", {a: a for a in schema.attribute_names})],
        projection=projection,
    )
    sigma = fds + [CFD("R", {"A1": "1"}, {"D": "9"})]
    queries = []
    for mask in range(2**n):
        lhs = tuple(f"A{i + 1}" if mask >> i & 1 else f"B{i + 1}" for i in range(n))
        queries += [FD("V", lhs, ("D",)), FD("V", lhs, ("A1",))]
    engines = {kernel: PropagationEngine(kernel=kernel) for kernel in KERNELS}
    verdicts = {k: e.check_many(sigma, view, queries) for k, e in engines.items()}
    assert verdicts["bitset"] == verdicts["baseline"]
    assert False in verdicts["bitset"]
    assert engines["bitset"].stats.chase_invocations == engines["baseline"].stats.chase_invocations
    refuted = queries[verdicts["bitset"].index(False)]
    packed, plain = (e.find_counterexample(sigma, view, refuted) for e in engines.values())
    assert packed.branch_pair == plain.branch_pair
    assert json.dumps(
        repro_io.instance_to_json(packed.database), sort_keys=True
    ) == json.dumps(repro_io.instance_to_json(plain.database), sort_keys=True)


# ----------------------------------------------------------------------
# Automatic fallback.
# ----------------------------------------------------------------------


def test_unhashable_constant_falls_back_to_baseline():
    """A view constant the runner cannot intern must not change answers.

    The engine layer rejects unhashable view constants outright (its
    fingerprints hash them), so the fallback seam lives one level down:
    ``find_counterexample(..., kernel="bitset")`` meets the interning
    ``TypeError``, flips the runner unusable and re-answers through the
    baseline pair loop.
    """
    from repro import (
        ConstantRelation,
        DatabaseSchema,
        Product,
        RelationRef,
        RelationSchema,
        SPCUView,
        Union,
    )
    from repro.propagation.check import (
        BranchPairCache,
        _sigma_state,
        find_counterexample,
    )

    schema = DatabaseSchema(
        [RelationSchema(f"R{i}", ["A", "B"]) for i in (1, 2)]
    )

    class Weird:
        """Equality-only value: hashing it raises, `==` works."""

        __hash__ = None

        def __eq__(self, other):
            return isinstance(other, Weird)

    expr = Union(
        Product(ConstantRelation({"C": Weird()}), RelationRef("R1")),
        Product(ConstantRelation({"C": Weird()}), RelationRef("R2")),
    )
    view = SPCUView.from_expr(expr, schema, name="V")
    sigma = [FD("R1", ("A",), ("B",)), FD("R2", ("A",), ("B",))]
    holds = CFD("V", {"A": WILDCARD}, {"B": WILDCARD})
    fails = CFD("V", {"B": WILDCARD}, {"A": WILDCARD})
    for phi in (holds, fails):
        answers = []
        for kernel in KERNELS:
            cache = BranchPairCache(view, enabled=True)
            witness = find_counterexample(
                sigma, view, phi, cache=cache, kernel=kernel
            )
            answers.append(witness is None)
            if kernel == "bitset":
                cfds, sigma_key = _sigma_state(sigma)
                runner = cache.kernel_runner(cfds, sigma_key)
                assert runner.usable is False
        assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# Packed implication: MinCover, bitset against the baseline.
# ----------------------------------------------------------------------


def _assert_same_min_cover(sigma, schema=None):
    want = min_cover(sigma, schema, kernel="baseline")
    got = min_cover(sigma, schema, kernel="bitset")
    assert [repr(phi) for phi in got] == [repr(phi) for phi in want]
    assert got == want
    return want


@pytest.mark.parametrize("key", [(100, 0.4), (100, 0.5), (200, 0.4), (200, 0.5)])
def test_min_cover_matches_baseline_on_fig5_pool(fig5_fast, key):
    """The REPRO_FAST Fig 5 pool: the whole Sigma, then the cover itself
    (input MinCover scoped to the view's sources, final MinCover over
    view CFDs that carry equality-form members)."""
    _, view, pool = fig5_fast
    sigma = pool[key]
    _assert_same_min_cover(sigma)
    covers = [
        prop_cfd_spc_report(sigma, view, kernel=kernel).cover for kernel in KERNELS
    ]
    assert [repr(phi) for phi in covers[0]] == [repr(phi) for phi in covers[1]]


def test_engine_covers_match_the_uncached_baseline_on_fig5_pool(fig5_fast):
    """The engine under its resolved kernel (``REPRO_KERNEL``, default
    bitset) against the uncached baseline-kernel oracle: the scoped,
    memoized input MinCover included."""
    _, view, pool = fig5_fast
    engine = PropagationEngine()
    oracle = PropagationEngine(use_cache=False, kernel="baseline")
    for key in ((100, 0.5), (200, 0.4)):
        assert engine.cover(pool[key], view) == oracle.cover(pool[key], view)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("constant_lhs", [False, True], ids=["mixed", "constant-lhs"])
def test_min_cover_matches_baseline_on_constant_heavy_streams(seed, constant_lhs):
    """Low var% (and all-constant LHS) over two-value constant pools.

    The constants come from finite domains of size 2 so they collide,
    but the covers run in the infinite-domain setting (no schema): the
    streams hit conflicting constant bindings (vacuous implication) and
    the constant-conflict screen, which the paper's random constants
    from 1..100000 essentially never do.
    """
    rng = random.Random(4500 + seed)
    schema = random_schema(
        rng,
        num_relations=2,
        min_attributes=3,
        max_attributes=5,
        finite_domain_fraction=1.0,
        finite_domain_size=2,
    )
    for var_pct in (0.0, 0.1, 0.25):
        sigma = random_cfds(
            rng,
            schema,
            14,
            max_lhs=2,
            min_lhs=1,
            var_pct=var_pct,
            constant_lhs=constant_lhs,
        )
        _assert_same_min_cover(sigma)


@pytest.mark.parametrize("seed", SEEDS)
def test_packed_implication_matches_implies(seed):
    """Single questions, on rule subsets, against ``core.implication``."""
    rng = random.Random(4600 + seed)
    attrs = ["A", "B", "C", "D"]
    verdicts = set()
    for _ in range(40):
        sigma = sorted(
            {
                phi
                for _ in range(rng.randint(2, 8))
                for phi in [_small_cfd(rng, attrs)]
                if not phi.is_trivial()
            },
            key=repr,
        )
        program = ImplicationProgram(sigma)
        for _ in range(10):
            query = _small_cfd(rng, attrs)
            if query.is_trivial() or not query.attributes <= set(program.attrs):
                continue
            entries = [e for _, e in query.lhs + query.rhs if not is_wildcard(e)]
            if any(e.value not in program.consts for e in entries):
                continue
            enabled = rng.getrandbits(len(sigma))
            subset = [phi for i, phi in enumerate(sigma) if enabled >> i & 1]
            want = implies(subset, query)
            verdicts.add(want)
            assert program.implies(
                query.lhs, query.rhs_attr, query.rhs_entry, enabled
            ) == want, (subset, query)
    assert verdicts == {True, False}


def _small_cfd(rng: random.Random, attrs: list[str]) -> CFD:
    """A CFD over a tiny vocabulary: constants 1/2, self-references."""

    def entry():
        return WILDCARD if rng.random() < 0.4 else rng.choice([1, 2])

    chosen = rng.sample(attrs, rng.randint(1, 3))
    rhs = chosen[-1] if rng.random() < 0.8 else chosen[0]
    return CFD("R", {a: entry() for a in chosen[:-1]}, {rhs: entry()})


def test_min_cover_matches_baseline_on_self_constant_cfds():
    """``(A -> A, (_ || a))`` forces a constant everywhere; MinCover
    simplifies it to an empty LHS, which fires unconditionally."""
    cases = [
        [
            CFD.constant("R", "A", 1),
            CFD("R", {"A": 1}, {"B": 2}),
            CFD("R", {"A": 1, "C": WILDCARD}, {"B": 2}),
            CFD("R", {"B": WILDCARD}, {"C": WILDCARD}),
            CFD("R", {"A": WILDCARD, "B": 2}, {"C": 3}),
        ],
        # Two global constants on one attribute: Sigma is inconsistent,
        # every question is vacuously implied.
        [
            CFD.constant("R", "A", 1),
            CFD.constant("R", "A", 2),
            CFD("R", {"B": WILDCARD}, {"C": WILDCARD}),
            CFD("R", {"C": 1, "D": WILDCARD}, {"B": 1}),
        ],
        [
            CFD("R", {"A": 1}, {"A": 2}),  # A=1 never occurs
            CFD("R", {"A": 1, "B": WILDCARD}, {"C": WILDCARD}),
            CFD.constant("R", "B", 1),
            CFD("R", {"B": 1}, {"C": 5}),
        ],
    ]
    for sigma in cases:
        assert _assert_same_min_cover(sigma)


def test_equality_form_sigma_matches_baseline():
    sigma = [
        CFD.equality("V", "A", "B"),
        CFD("V", {"A": WILDCARD}, {"C": WILDCARD}),
        CFD("V", {"B": WILDCARD, "D": WILDCARD}, {"C": WILDCARD}),
        CFD("R", {"A": WILDCARD, "B": WILDCARD}, {"C": WILDCARD}),
        CFD("R", {"A": WILDCARD}, {"C": WILDCARD}),
    ]
    view_sigma = sorted((phi for phi in sigma if phi.relation == "V"), key=repr)
    # Under A = B, B D -> C trims to B -> C, which makes A -> C
    # redundant; the equality itself is never trimmed.
    assert packed_min_cover_relation(view_sigma) == [
        CFD.equality("V", "A", "B"),
        CFD("V", {"B": WILDCARD}, {"C": WILDCARD}),
    ]
    cover = _assert_same_min_cover(sigma)
    # The equality-free relation still minimizes: the redundant LHS goes.
    assert CFD("R", {"A": WILDCARD}, {"C": WILDCARD}) in cover
    assert CFD("R", {"A": WILDCARD, "B": WILDCARD}, {"C": WILDCARD}) not in cover


EQ_ATTRS = ["A", "B", "C", "D", "E", "F"]


def _equality_heavy_cfd(rng: random.Random) -> CFD:
    """A CFD over 6 attributes and constants 1/2; a quarter equality-form."""
    if rng.random() < 0.25:
        return CFD.equality("R", *rng.sample(EQ_ATTRS, 2))

    def entry():
        return WILDCARD if rng.random() < 0.5 else rng.choice([1, 2])

    chosen = rng.sample(EQ_ATTRS, rng.randint(2, 4))
    rhs = chosen[-1] if rng.random() < 0.85 else chosen[0]
    return CFD("R", {a: entry() for a in chosen[:-1]}, {rhs: entry()})


@pytest.mark.parametrize("block", range(6))
def test_min_cover_matches_baseline_on_equality_heavy_sigma(monkeypatch, block):
    """Equality-form rules run on class representatives.

    50 seeded Sigma sets per block (1-10 CFDs).  A spy on the packed
    program confirms the stream reaches the two equality-specific
    corners: a question whose LHS puts two different constants on one
    class (vacuously implied), and an equality-form question in the
    redundancy phase.
    """
    seen = {"conflict": 0, "equality": 0}
    original = ImplicationProgram.implies

    def spy(self, lhs, rhs_attr, rhs_entry, enabled=None):
        rep = self._view((self.all_rules if enabled is None else enabled) & self.eq_rules)[0]
        if is_special(rhs_entry):
            seen["equality"] += 1
        bound: dict[int, object] = {}
        for name, entry in lhs:
            if is_const(entry) and bound.setdefault(rep[self.attrs[name]], entry.value) != entry.value:
                seen["conflict"] += 1
                break
        return original(self, lhs, rhs_attr, rhs_entry, enabled)

    monkeypatch.setattr(ImplicationProgram, "implies", spy)
    for seed in range(50 * block, 50 * (block + 1)):
        rng = random.Random(4700 + seed)
        sigma = [_equality_heavy_cfd(rng) for _ in range(rng.randint(1, 10))]
        _assert_same_min_cover(sigma)
    assert seen["conflict"] > 0
    assert seen["equality"] > 0


def test_packed_implication_matches_implies_on_equality_queries():
    """Single questions under equality rules, equality-form ones too."""
    rng = random.Random(4800)
    verdicts = set()
    for _ in range(300):
        sigma = sorted(
            {
                phi
                for _ in range(rng.randint(2, 8))
                for phi in [_equality_heavy_cfd(rng)]
                if not phi.is_trivial()
            },
            key=repr,
        )
        program = ImplicationProgram(sigma)
        for _ in range(5):
            query = _equality_heavy_cfd(rng)
            if query.is_trivial() or not query.attributes <= set(program.attrs):
                continue
            entries = [e for _, e in query.lhs + query.rhs if is_const(e)]
            if any(e.value not in program.consts for e in entries):
                continue
            enabled = rng.getrandbits(len(sigma))
            subset = [phi for i, phi in enumerate(sigma) if enabled >> i & 1]
            want = implies(subset, query)
            verdicts.add((query.is_equality, want))
            assert program.implies(
                query.lhs, query.rhs_attr, query.rhs_entry, enabled
            ) == want, (subset, query)
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_bitset_cover_makes_no_baseline_implication_calls(monkeypatch, fig5_fast):
    """Work shape: with the bitset kernel no ``MinCover`` of a cover —
    input, RBR-partitioned or final (equality-form CFDs included) —
    reaches ``core.implication.implies``; the covers are computed with
    the baseline first and must come out identical."""
    import repro.core.implication
    import repro.core.mincover

    _, view, pool = fig5_fast
    sigma = pool[(200, 0.5)]
    want = prop_cfd_spc_report(sigma, view, kernel="baseline").cover
    assert any(phi.is_equality for phi in want)
    gamma = [
        CFD("R", {"X": WILDCARD}, {"A": WILDCARD}),
        CFD("R", {"Y": WILDCARD}, {"A": WILDCARD}),
        CFD("R", {"A": WILDCARD, "Z": WILDCARD}, {"B": WILDCARD}),
        CFD("R", {"B": WILDCARD}, {"C": WILDCARD}),
    ]
    want_rbr = rbr(gamma, ["A", "B"], partition_size=1, kernel="baseline")

    def refuse(*args, **kwargs):
        raise AssertionError("a bitset MinCover reached core.implication.implies")

    monkeypatch.setattr(repro.core.implication, "implies", refuse)
    monkeypatch.setattr(repro.core.mincover, "implies", refuse)
    assert prop_cfd_spc_report(sigma, view, kernel="bitset").cover == want
    assert PropagationEngine(kernel="bitset").cover(sigma, view) == want
    assert rbr(gamma, ["A", "B"], partition_size=1, kernel="bitset") == want_rbr


def test_spcu_cover_runs_every_min_cover_on_the_engine_kernel(
    monkeypatch, customer_sigma, customer_view
):
    """The union MinCover and the branch covers of ``prop_cfd_spcu``
    take the cached engine's kernel; the uncached engine stays the
    baseline oracle."""
    import repro.core.mincover

    want = PropagationEngine(use_cache=False, kernel="baseline").cover(
        customer_sigma, customer_view
    )
    kernels = []
    original = repro.core.mincover.min_cover

    def spy(sigma, schema=None, kernel=None):
        kernels.append(kernel)
        return original(sigma, schema, kernel)

    for module in (
        "repro.core.mincover",
        "repro.propagation.cover",
        "repro.propagation.spcu_cover",
        "repro.propagation.engine.core",
    ):
        monkeypatch.setattr(f"{module}.min_cover", spy)
    assert PropagationEngine(kernel="bitset").cover(customer_sigma, customer_view) == want
    assert kernels and set(kernels) == {"bitset"}
    kernels.clear()
    PropagationEngine(use_cache=False, kernel="bitset").cover(customer_sigma, customer_view)
    assert kernels and set(kernels) == {"baseline"}


def test_finite_domain_schema_falls_back_to_baseline(monkeypatch):
    import repro.kernel.implication as packed

    def refuse(current):
        raise AssertionError("finite-domain MinCover reached the packed kernel")

    monkeypatch.setattr(packed, "packed_min_cover_relation", refuse)
    schema = RelationSchema(
        "R",
        [Attribute("A", finite("bit", [0, 1])), "B", "C"],
    )
    sigma = [
        CFD("R", {"A": 0}, {"B": WILDCARD}),
        CFD("R", {"A": 1}, {"B": WILDCARD}),
        CFD("R", {"A": WILDCARD, "C": WILDCARD}, {"B": WILDCARD}),
    ]
    cover = _assert_same_min_cover(sigma, schema)
    # With A ranging over {0, 1}, the two constant CFDs imply the third.
    assert CFD("R", {"A": WILDCARD, "C": WILDCARD}, {"B": WILDCARD}) not in cover


def test_core_does_not_import_the_kernel_at_module_level():
    """``core/`` reaches ``repro.kernel`` only through function-local imports."""
    import ast
    from pathlib import Path

    import repro.core

    for path in Path(repro.core.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                assert "kernel" not in (node.module or ""), path.name
            elif isinstance(node, ast.Import):
                assert not any("kernel" in alias.name for alias in node.names), path.name
