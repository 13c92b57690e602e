"""Preorder classes, order, closures and cone rays as they ran label by label.

``Preorder`` now reads its classes, strict order and principal upper sets
off its bitmask rows: two labels are equivalent when their rows are equal,
and one lies strictly below another when the other's row is a strict
subset of its own.  The bodies below are the methods they replaced, with
one ``leq``/``lt`` lookup per pair, copied verbatim with ``self`` made the
first argument; a call from one replaced method to another goes to the
copy here, so no reference result passes through the new code.  The old
``cones.ray_generators`` and ``cones._structure_halfspaces`` and
``enriched._refining`` follow; they are the reference the row versions
are tested against.
"""

from __future__ import annotations

import itertools

from enrichfan.cones import GE, GT, EQ, Halfspace
from enrichfan.graphs import bits, label_key, sort_labels
from enrichfan.preorders import Preorder, QuotientPoset


def up_closure(self, a) -> frozenset:
    row = self._rows[self._i(a)]
    return frozenset(lab for j, lab in enumerate(self._labels) if row >> j & 1)


def down_closure(self, a) -> frozenset:
    j = self._i(a)
    return frozenset(lab for i, lab in enumerate(self._labels) if self._rows[i] >> j & 1)


def classes(self) -> tuple:
    """Equivalence classes of mutual comparability, ordered by least label."""
    seen = set()
    out = []
    for i, a in enumerate(self._labels):
        if a in seen:
            continue
        cls = frozenset(
            b for j, b in enumerate(self._labels)
            if self._rows[i] >> j & 1 and self._rows[j] >> i & 1
        )
        seen |= cls
        out.append(cls)
    return tuple(out)


def class_of(self, a) -> frozenset:
    i = self._i(a)
    return frozenset(
        b for j, b in enumerate(self._labels)
        if self._rows[i] >> j & 1 and self._rows[j] >> i & 1
    )


def rank(self) -> int:
    return len(classes(self))


def is_partial_order(self) -> bool:
    return all(len(c) == 1 for c in classes(self))


def minimal_labels(self) -> frozenset:
    return frozenset(
        a for a in self._labels
        if not any(self.lt(b, a) for b in self._labels)
    )


def is_lower_set(self, s) -> bool:
    s = frozenset(s)
    for a in s:
        self._i(a)
    return all(not (self.leq(b, a) and b not in s) for a in s for b in self._labels)


def is_upper_set(self, s) -> bool:
    s = frozenset(s)
    for a in s:
        self._i(a)
    return all(not (self.leq(a, b) and b not in s) for a in s for b in self._labels)


def lower_sets(self) -> list:
    """All lower sets, canonically ordered; exponential scan of subsets."""
    labels = self._labels
    n = len(labels)
    below = [0] * n  # bit j of below[i]: ground[j] ≼ ground[i]
    for j, row in enumerate(self._rows):
        for i in range(n):
            if row >> i & 1:
                below[i] |= 1 << j
    out = []
    for k in range(n + 1):
        for sub in itertools.combinations(range(n), k):
            mask = 0
            for i in sub:
                mask |= below[i]
            if mask.bit_count() == k:
                out.append(frozenset(labels[i] for i in sub))
    return out


def irreducible_upper_sets(self, brute_force: bool = False) -> list:
    """The principal up-closures, one per equivalence class.

    With ``brute_force=True`` the result is recomputed from the
    definition: upper sets that are not unions of two proper upper
    subsets (the irreducible closed sets of the preorder topology).
    """
    principal = sorted(
        {up_closure(self, min(c, key=label_key)) for c in classes(self)},
        key=lambda s: tuple(map(label_key, sort_labels(s))),
    )
    if brute_force:
        uppers = [
            frozenset(sub)
            for k in range(1, len(self._labels) + 1)
            for sub in itertools.combinations(self._labels, k)
            if is_upper_set(self, sub)
        ]
        irr = []
        for u in uppers:
            proper = [w for w in uppers if w < u]
            if not any(w1 | w2 == u for w1 in proper for w2 in proper):
                irr.append(u)
        assert sorted(irr, key=lambda s: tuple(map(label_key, sort_labels(s)))) == principal
    return principal


def restrict(self, s) -> Preorder:
    labels = sort_labels(set(s))
    for a in labels:
        self._i(a)
    rows = []
    for a in labels:
        row = 0
        for j, b in enumerate(labels):
            if self.leq(a, b):
                row |= 1 << j
        rows.append(row)
    return Preorder._family(labels, [tuple(rows)])[0]


def quotient(self) -> QuotientPoset:
    classes_ = classes(self)
    reps = [min(c, key=label_key) for c in classes_]
    n = len(classes_)
    less = frozenset(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and self.lt(reps[i], reps[j])
    )
    hasse = tuple(
        sorted(
            (i, j)
            for (i, j) in less
            if not any((i, k) in less and (k, j) in less for k in range(n))
        )
    )
    return QuotientPoset(tuple(sort_labels(c) for c in classes_), less, hasse)


def ray_generators(eg) -> list:
    """Ray generators of the closed structure cone: indicator vectors of the
    irreducible upper sets."""
    labels = eg.graph.edge_labels
    out = []
    for t in irreducible_upper_sets(eg.preorder):
        out.append(tuple(1 if lab in t else 0 for lab in labels))
    return sorted(out)


def _structure_halfspaces(eg, strict: bool) -> tuple:
    """Constraints of the structure cone, generated from the quotient poset.

    Equalities inside classes, one inequality per Hasse cover, positivity
    on the root classes; transitivity makes these cut out the whole cone.
    """
    labels = eg.graph.edge_labels
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    q = quotient(eg.preorder)
    hs = []

    def diff(a, b):
        row = [0] * n
        row[pos[a]] += 1
        row[pos[b]] -= 1
        return tuple(row)

    for cls in q.classes:
        for a, b in zip(cls, cls[1:]):
            hs.append(Halfspace(diff(a, b), EQ))
    rel = GT if strict else GE
    for i, j in q.hasse:
        hs.append(Halfspace(diff(q.classes[j][0], q.classes[i][0]), rel))
    for i in q.roots():
        unit = tuple(1 if t == pos[q.classes[i][0]] else 0 for t in range(n))
        hs.append(Halfspace(unit, rel))
    return tuple(hs)


def _refining(rows: tuple):
    """The bottom classes a structure containing the preorder ``rows`` can
    have: the nonempty unions of the edges' down-sets within the mask."""
    below = [sum(1 << j for j, row in enumerate(rows) if row >> i & 1) for i in range(len(rows))]

    def bottoms(mask):
        found = {0}
        for i in bits(mask):
            found |= {sub | below[i] & mask for sub in found}
        return found - {0}

    return bottoms
