"""Preorder classes, order, closures and cone rays as they ran label by label.

``Preorder`` now reads its classes, strict order and principal upper sets
off its bitmask rows: two labels are equivalent when their rows are equal,
and one lies strictly below another when the other's row is a strict
subset of its own.  The bodies below are the methods they replaced, with
one ``leq``/``lt`` lookup per pair, copied verbatim with ``self`` made the
first argument; a call from one replaced method to another goes to the
copy here, so no reference result passes through the new code.  The old
``cones.ray_generators`` and ``cones._structure_halfspaces`` follow;
they are the reference the row versions are tested against.

``is_lower_set``, ``restrict`` and ``contains`` are all that is left of
the three ``Preorder`` methods of those names, which the specialization
check used before it ran on rows; ``contains`` is the row method copied
verbatim.  ``lower_sets`` (with ``_transpose``) and ``relabel`` are the
row methods copied verbatim once the library stopped calling them:
specializations read lower sets off the faces of the structure cone
(``enriched._faces``), and the census moves rows by edge-index tables.
``roots`` is ``QuotientPoset.roots``, the minimal classes read off
``less``, which no library code called.  ``parents`` is
``QuotientPoset.parents``, copied verbatim with ``self`` made the first
argument: a second derivation of a class's parent, from the Hasse covers,
which only the tests called once structures read theirs off the row forest
(``enriched._parents``).

``pairs`` is ``Preorder.pairs`` as it ran before it read each row's set
bits: copied verbatim with ``self`` made the first argument, it tests every
label pair.

``all_preorders`` enumerates every preorder on a small ground set by
brute force; enumeration and validation are tested against it.
"""

from __future__ import annotations

import itertools

from enrichfan.errors import UnknownLabelError
from enrichfan.graphs import bits, label_key, sort_labels
from enrichfan.preorders import Preorder, QuotientPoset, _closed
from reference_lattices import EQ, GE, GT, Halfspace


def lt(self, a, b) -> bool:
    return self.leq(a, b) and not self.leq(b, a)


def pairs(self) -> list:
    """All related pairs (a, b) with a ≼ b and a != b."""
    out = []
    for i, a in enumerate(self._labels):
        row = self._rows[i]
        for j, b in enumerate(self._labels):
            if i != j and row >> j & 1:
                out.append((a, b))
    return out


def up_closure(self, a) -> frozenset:
    row = self._rows[self._i(a)]
    return frozenset(lab for j, lab in enumerate(self._labels) if row >> j & 1)


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


def rank(self) -> int:
    return len(classes(self))


def is_partial_order(self) -> bool:
    return all(len(c) == 1 for c in classes(self))


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


def _transpose(rows) -> list:
    """Down-set rows: bit ``j`` of row ``i`` is set when bit ``i`` of ``rows[j]`` is."""
    below = [0] * len(rows)
    for j, row in enumerate(rows):
        for i in bits(row):
            below[i] |= 1 << j
    return below


def lower_sets(self) -> list:
    """All lower sets, canonically ordered; exponential scan of subsets."""
    labels = self._labels
    n = len(labels)
    below = _transpose(self._rows)
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


def contains(self, other) -> bool:
    """True when every relation of ``other`` also holds here (same ground)."""
    if self._labels != other._labels:
        raise UnknownLabelError("ground sets differ")
    return all(o & ~s == 0 for s, o in zip(self._rows, other._rows))


def relabel(self, mapping) -> "Preorder":
    """Transport the preorder along a label bijection.

    The rows are moved bit by bit; a bijection keeps them closed.
    """
    images = [mapping[a] for a in self._labels]
    if self._index.keys() == set(images):  # a permutation keeps the ground set
        labels, index = self._labels, self._index
    else:
        labels = sort_labels(images)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("relabelling must be injective")
    new = [index[b] for b in images]
    rows = [0] * len(labels)
    for i, row in enumerate(self._rows):
        for j in bits(row):
            rows[new[i]] |= 1 << new[j]
    return Preorder._family(labels, [tuple(rows)])[0]


def roots(q: QuotientPoset) -> tuple:
    """Indices of the minimal classes of ``q``: those no class lies below."""
    above = {j for _, j in q.less}
    return tuple(i for i in range(len(q.classes)) if i not in above)


def parents(self) -> dict:
    """Map a class index to its unique Hasse predecessor, when one exists."""
    out = {}
    for i, j in self.hasse:
        if j in out:
            raise ValueError(f"class {j} covers more than one class")
        out[j] = i
    return out


def quotient(self) -> QuotientPoset:
    classes_ = classes(self)
    reps = [min(c, key=label_key) for c in classes_]
    n = len(classes_)
    less = frozenset(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and lt(self, reps[i], reps[j])
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
    for i in roots(q):
        unit = tuple(1 if t == pos[q.classes[i][0]] else 0 for t in range(n))
        hs.append(Halfspace(unit, rel))
    return tuple(hs)


def all_preorders(ground):
    """Every preorder on ``ground``: each off-diagonal relation set, kept when closed."""
    labels = sort_labels(set(ground))
    n = len(labels)
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        m = mask
        for (i, j) in offdiag:
            if m & 1:
                rows[i] |= 1 << j
            m >>= 1
        if _closed(list(rows)) == rows:
            yield Preorder._family(labels, [tuple(rows)])[0]
