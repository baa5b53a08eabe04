"""Packed CFD implication for ``MinCover`` on one relation.

``min_cover`` asks one relation's Sigma ``O(|Sigma| * |X|)`` implication
questions, and the Sigma it asks them against stays fixed for a whole
phase: every ``_trim_lhs`` test runs against the same sorted set, and
every redundancy test against that set minus the removed CFDs.  The
baseline :func:`repro.core.implication.implies` re-normalizes Sigma on
each call, re-scans it in its screens and chases a dict/``SymVar``
canonical pair.  Here the set is compiled once per phase into integer
rule programs and each question runs on them:

- attributes are interned to bit positions and constants to dense ids
  (``==``/hash semantics, exactly the baseline's constant comparison);
- per rule, a *fire* mask (the LHS positions that must be active before
  the rule can fire: all of them for a wildcard RHS, the constant ones
  for a constant RHS), its constant LHS entries as ``(attr, id)`` pairs,
  and its RHS attribute and constant id; an equality-form rule
  ``R(A -> B, (x || x))`` is kept as ``(rule, A, B)``;
- the canonical two-tuple chase is a union-find with one constant slot
  per root, which collapses to two words and a list.

Equality rules have no premise, so the rules a question enables fix an
attribute partition before the chase starts: every tuple's ``A`` and
``B`` cells are one class.  The program caches, per distinct set of
enabled equality rules, the partition's representative map and the
fire masks, premises and RHS attributes remapped onto representatives
(the trim phase sees one such set, the redundancy phase at most one per
equality rule plus one; without equality rules the map is the identity
and nothing is remapped).  On representatives the chase only ever
equates ``t1[B]`` with ``t2[B]`` or binds a cell to a constant, so every
class lies inside one representative; and the canonical pair is
symmetric under swapping its rows, as is every rule, so the unique
chase result binds ``t1[A]`` to a constant iff it binds ``t2[A]`` to the
same one.  The state is thus an *equal* mask (the two cells of a
representative are one class), a *bound* mask and one constant slot per
representative, and a rule's premise test is one AND plus its constant
comparisons.  Two LHS constants landing on one representative make the
canonical pair unrealizable: the question is vacuously implied.

An equality-form question ``A = B`` runs the baseline's single-tuple
variant: nothing is bound at the start, only constant rules can fire
(a pair rule needs two tuples), and ``A = B`` is implied iff the chase
fails, ``A`` and ``B`` share a representative, or both representatives
end bound to the same constant.

The verdict is the baseline's: the extended chase is confluent (only
equality-generating consequences, so its result is the least fixpoint
whatever the rule order), and a query is implied iff the chase fails
(vacuous implication) or forces the two RHS cells equal and, for a
constant RHS, equal to it.  The baseline's chase-free screens
(subsumption, attribute reachability, constant conflicts) are not
replicated: each is a pass over the rules much like one chase round
here, and on the Fig 5 pool MinCover ran faster without them.
:func:`packed_min_cover_relation` then replays ``_min_cover_relation``'s
loops verbatim against the program, building a ``CFD`` only for a
trimmed result, so covers are byte-identical; ``tests/test_kernel.py``
differentials it against the baseline.

The program covers the infinite-domain setting; finite-domain schemas
never reach it.  (Every constant interns: a ``CFD`` hashes its pattern
on construction.)
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.cfd import CFD
from ..core.values import is_const, is_special, is_wildcard

__all__ = ["ImplicationProgram", "packed_min_cover_relation"]

#: Pattern id of the wildcard (constants get ids >= 0).
_WILD = -1


class ImplicationProgram:
    """One relation's normal-form Sigma compiled for repeated tests.

    Rule ``i`` is ``sigma[i]``; a test may disable rules through an
    *enabled* bitmask over rule indices.  Every attribute and constant a
    test mentions must occur in the compiled Sigma (true of ``MinCover``,
    whose questions are sub-CFDs of Sigma's own members).
    """

    __slots__ = (
        "attrs",
        "consts",
        "fire",
        "pair",
        "rhs",
        "rhs_const",
        "premise",
        "equalities",
        "eq_rules",
        "chase_rules",
        "const_rules",
        "all_rules",
        "_views",
    )

    def __init__(self, sigma: Sequence[CFD]) -> None:
        self.attrs: dict[str, int] = {}
        self.consts: dict[Any, int] = {}
        #: Per rule: the LHS positions that must be active before it can
        #: fire — all of them for a pair rule (wildcard RHS, needs equal
        #: cells), the constant ones for a constant rule.
        self.fire: list[int] = []
        self.pair: list[bool] = []
        self.rhs: list[int] = []
        self.rhs_const: list[int] = []
        #: Per rule: ``((attr, const id), ...)`` of its constant LHS entries.
        self.premise: list[tuple[tuple[int, int], ...]] = []
        #: ``(rule index, attr a, attr b)`` per equality-form rule; its
        #: entries in the per-rule lists above are inert placeholders.
        self.equalities: list[tuple[int, int, int]] = []
        eq_rules = const_rules = 0
        for i, dep in enumerate(sigma):
            lhs_mask = const_mask = 0
            premise = []
            if dep.is_equality:
                self.equalities.append((i, self._attr(dep.lhs[0][0]), self._attr(dep.rhs_attr)))
                eq_rules |= 1 << i
                pair = True
            else:
                for name, entry in dep.lhs:
                    index = self._attr(name)
                    lhs_mask |= 1 << index
                    if is_const(entry):
                        const_mask |= 1 << index
                        premise.append((index, self._const(entry.value)))
                pair = is_wildcard(dep.rhs_entry)
                if not pair:
                    const_rules |= 1 << i
            self.fire.append(lhs_mask if pair else const_mask)
            self.pair.append(pair)
            self.rhs.append(self._attr(dep.rhs_attr))
            self.rhs_const.append(_WILD if pair else self._const(dep.rhs_entry.value))
            self.premise.append(tuple(premise))
        self.all_rules = (1 << len(self.fire)) - 1
        self.eq_rules = eq_rules
        self.chase_rules = self.all_rules & ~eq_rules
        self.const_rules = const_rules
        #: Enabled equality rules (a mask) -> the representative map and
        #: the fire masks, premises and RHS attributes remapped onto it.
        self._views: dict[int, tuple[list[int], list[int], list, list[int]]] = {
            0: (list(range(len(self.attrs))), self.fire, self.premise, self.rhs)
        }

    def _attr(self, name: str) -> int:
        index = self.attrs.get(name)
        if index is None:
            index = self.attrs[name] = len(self.attrs)
        return index

    def _const(self, value: Any) -> int:
        cid = self.consts.get(value)
        if cid is None:
            cid = self.consts[value] = len(self.consts)
        return cid

    def _view(self, equalities: int) -> tuple[list[int], list[int], list, list[int]]:
        """The rules remapped onto the partition *equalities* fixes."""
        view = self._views.get(equalities)
        if view is not None:
            return view
        rep = list(range(len(self.attrs)))

        def find(x: int) -> int:
            while rep[x] != x:
                rep[x] = rep[rep[x]]
                x = rep[x]
            return x

        for i, a, b in self.equalities:
            if equalities >> i & 1:
                ra, rb = find(a), find(b)
                rep[max(ra, rb)] = min(ra, rb)
        rep = [find(x) for x in range(len(rep))]
        fire = []
        for mask in self.fire:
            remapped = 0
            for index, root in enumerate(rep):
                if mask >> index & 1:
                    remapped |= 1 << root
            fire.append(remapped)
        premise = [tuple((rep[a], c) for a, c in pattern) for pattern in self.premise]
        rhs = [rep[b] for b in self.rhs]
        view = self._views[equalities] = (rep, fire, premise, rhs)
        return view

    def implies(
        self,
        lhs: Sequence[tuple[str, Any]],
        rhs_attr: str,
        rhs_entry: Any,
        enabled: int | None = None,
    ) -> bool:
        """Decide ``Sigma' |= (lhs -> rhs_attr, (.. || rhs_entry))``.

        ``Sigma'`` is the rules whose bit is set in *enabled* (all of
        them by default).  The query must be a nontrivial normal-form
        CFD over the compiled attributes and constants; an equality-form
        query (``rhs_entry`` the special ``x``) asks ``lhs[0] = rhs_attr``.
        """
        if enabled is None:
            enabled = self.all_rules
        rep, fire, premise, rhs = self._view(enabled & self.eq_rules)
        attrs, consts = self.attrs, self.consts
        if is_special(rhs_entry):
            return self._implies_equality(
                rep[attrs[lhs[0][0]]], rep[attrs[rhs_attr]], enabled, fire, premise, rhs
            )
        goal = rep[attrs[rhs_attr]]
        goal_const = _WILD if is_wildcard(rhs_entry) else consts[rhs_entry.value]
        # The canonical pair: X cells shared (wildcard) or both bound to
        # the pattern constant; every other cell a fresh variable.
        # ``equal``: representatives whose two cells are one class;
        # ``bound``: representatives bound to the constant in their
        # ``const`` slot.
        equal = bound = 0
        const = [_WILD] * len(rep)
        for name, entry in lhs:
            index = rep[attrs[name]]
            equal |= 1 << index
            if is_const(entry):
                cid = consts[entry.value]
                if const[index] == _WILD:
                    bound |= 1 << index
                    const[index] = cid
                elif const[index] != cid:
                    return True  # unrealizable premise: vacuously implied

        pair, rhs_const = self.pair, self.rhs_const
        rules = enabled & self.chase_rules
        pending = [i for i in range(len(fire)) if rules >> i & 1]
        changed = True
        while changed:
            changed = False
            rest = []
            for i in pending:
                # A rule fires once every fire position is active (equal
                # for a pair rule, bound for a constant rule) and every
                # pattern constant matches; it is then spent.
                if fire[i] & ~(equal if pair[i] else bound) or not all(
                    const[a] == c for a, c in premise[i]
                ):
                    rest.append(i)
                    continue
                b = rhs[i]
                if pair[i]:
                    if not equal >> b & 1:
                        equal |= 1 << b  # link t1[B] and t2[B]
                        changed = True
                elif const[b] == _WILD:
                    const[b] = rhs_const[i]
                    bound |= 1 << b
                    equal |= 1 << b
                    changed = True
                elif const[b] != rhs_const[i]:
                    return True  # conflicting constants: vacuously implied
            pending = rest
            if equal >> goal & 1 and (goal_const == _WILD or const[goal] == goal_const):
                # The conclusion only persists; a later conflict would
                # make the implication vacuous, which is True as well.
                return True
        return False

    def _implies_equality(
        self,
        a: int,
        b: int,
        enabled: int,
        fire: list[int],
        premise: list,
        rhs: list[int],
    ) -> bool:
        """``A = B`` on one tuple of fresh cells (representatives *a*, *b*)."""
        if a == b:
            return True
        rhs_const = self.rhs_const
        bound = 0
        const = [_WILD] * len(self.attrs)
        rules = enabled & self.const_rules
        pending = [i for i in range(len(fire)) if rules >> i & 1]
        changed = True
        while changed:
            changed = False
            rest = []
            for i in pending:
                if fire[i] & ~bound or not all(const[x] == c for x, c in premise[i]):
                    rest.append(i)
                    continue
                target = rhs[i]
                if const[target] == _WILD:
                    const[target] = rhs_const[i]
                    bound |= 1 << target
                    changed = True
                elif const[target] != rhs_const[i]:
                    return True  # the tuple cannot exist: vacuously implied
            pending = rest
        return const[a] != _WILD and const[a] == const[b]


def packed_min_cover_relation(current: list[CFD]) -> list[CFD]:
    """``_min_cover_relation`` on packed implication.

    *current* is one relation's deduplicated, repr-sorted, normal-form
    Sigma.
    """
    program = ImplicationProgram(current)

    trimmed = []
    for phi in current:
        if phi.is_equality:
            trimmed.append(phi)  # ``_trim_lhs`` never trims the equality form
            continue
        rhs_attr, rhs_entry = phi.rhs_attr, phi.rhs_entry
        lhs = list(phi.lhs)
        for name, _ in phi.lhs:
            if len(lhs) <= 1:
                break
            # ``_trim_lhs`` skips trivial candidates; none arises here, as
            # a candidate keeps the RHS attribute's LHS entry (if any) of
            # its nontrivial parent.
            candidate = [item for item in lhs if item[0] != name]
            if program.implies(candidate, rhs_attr, rhs_entry):
                lhs = candidate
        trimmed.append(phi if len(lhs) == len(phi.lhs) else CFD(phi.relation, lhs, phi.rhs))
    current = sorted(set(trimmed), key=repr)

    program = ImplicationProgram(current)
    enabled = program.all_rules
    for i, phi in enumerate(current):
        rest = enabled & ~(1 << i)
        if program.implies(phi.lhs, phi.rhs_attr, phi.rhs_entry, rest):
            enabled = rest
    return [phi for i, phi in enumerate(current) if enabled >> i & 1]
