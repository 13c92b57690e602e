"""Finite preorders on label sets: closure, quotient posets, upper/lower sets.

A preorder is stored densely as one bitmask row per label over the sorted
ground set: bit ``j`` of row ``i`` is set when ``ground[i] ≼ ground[j]``,
so row ``i`` is the principal upper set of ``ground[i]``.  Rows are closed,
and two identities read the rest off them: labels ``i`` and ``j`` are
equivalent exactly when ``rows[i] == rows[j]``, and ``i`` lies strictly
below ``j`` exactly when ``rows[j]`` is a strict subset of ``rows[i]``.
Classes, the quotient order and the principal upper sets are therefore the
distinct rows and their inclusions.  Ground sets here never exceed a dozen
labels, so simplicity wins over asymptotics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceededError, UnknownLabelError
from .graphs import bits, label_key, sort_labels

BRUTE_FORCE_LABELS = 5  # largest ground set all_preorders enumerates


def _transpose(rows) -> list:
    """Down-set rows: bit ``j`` of row ``i`` is set when bit ``i`` of ``rows[j]`` is."""
    below = [0] * len(rows)
    for j, row in enumerate(rows):
        for i in bits(row):
            below[i] |= 1 << j
    return below


def _closed(rows: list) -> list:
    """Reflexive-transitive closure of bitmask rows, in place."""
    n = len(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


class Preorder:
    """A reflexive transitive relation on a finite label set."""

    __slots__ = ("_labels", "_index", "_rows", "_hash")

    def __init__(self, labels, rows):
        """A preorder from rows over the sorted ``labels``, checked to be closed;
        the library's own closed rows go through ``_family`` unchecked."""
        labels = sort_labels(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate labels in ground set")
        rows = list(rows)
        if len(rows) != len(labels):
            raise ValueError("one relation row per label required")
        if _closed(list(rows)) != rows:
            raise ValueError("relation is not reflexively and transitively closed")
        self._labels = labels
        self._index = index
        self._rows = tuple(rows)
        self._hash = hash((labels, self._rows))

    @staticmethod
    def from_relations(ground, pairs) -> "Preorder":
        """Smallest preorder on ``ground`` containing all ``(a, b)`` as a ≼ b."""
        labels = sort_labels(set(ground))
        index = {lab: i for i, lab in enumerate(labels)}
        rows = [0] * len(labels)
        for a, b in pairs:
            if a not in index:
                raise UnknownLabelError(f"unknown label {a!r}")
            if b not in index:
                raise UnknownLabelError(f"unknown label {b!r}")
            rows[index[a]] |= 1 << index[b]
        return Preorder._family(labels, [tuple(_closed(rows))])[0]

    @staticmethod
    def discrete(ground) -> "Preorder":
        labels = sort_labels(set(ground))
        return Preorder._family(labels, [tuple(1 << i for i in range(len(labels)))])[0]

    @staticmethod
    def indiscrete(ground) -> "Preorder":
        """All labels pairwise equivalent."""
        labels = sort_labels(set(ground))
        full = (1 << len(labels)) - 1
        return Preorder._family(labels, [(full,) * len(labels)])[0]

    @staticmethod
    def _family(labels: tuple, rows_seq) -> list:
        """Preorders on the sorted ground ``labels`` from rows known to be closed.

        The family shares one ground tuple and one index, so building many
        preorders on one edge set skips the per-instance sort and checks.
        """
        index = {lab: i for i, lab in enumerate(labels)}
        out = []
        for rows in rows_seq:
            p = object.__new__(Preorder)
            p._labels = labels
            p._index = index
            p._rows = rows
            p._hash = hash((labels, rows))
            out.append(p)
        return out

    @property
    def ground(self) -> tuple:
        return self._labels

    @property
    def rows(self) -> tuple:
        """Bit ``j`` of row ``i`` is set when ``ground[i] ≼ ground[j]``."""
        return self._rows

    def _i(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise UnknownLabelError(f"unknown label {a!r}") from None

    def leq(self, a, b) -> bool:
        return bool(self._rows[self._i(a)] >> self._i(b) & 1)

    def equiv(self, a, b) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def lt(self, a, b) -> bool:
        return self.leq(a, b) and not self.leq(b, a)

    def comparable(self, a, b) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def pairs(self) -> list:
        """All related pairs (a, b) with a ≼ b and a != b."""
        out = []
        for i, a in enumerate(self._labels):
            row = self._rows[i]
            for j, b in enumerate(self._labels):
                if i != j and row >> j & 1:
                    out.append((a, b))
        return out

    def _mask(self, s) -> int:
        """Bitmask of the labels in ``s``; unknown labels are rejected."""
        mask = 0
        for a in s:
            mask |= 1 << self._i(a)
        return mask

    def _labels_of(self, mask: int) -> frozenset:
        return frozenset(self._labels[j] for j in bits(mask))

    def _classes(self) -> dict:
        """Each distinct row mapped to the bitmask of its equivalence class
        (the labels sharing that row), ordered by least label."""
        classes = {}
        for i, row in enumerate(self._rows):
            classes[row] = classes.get(row, 0) | 1 << i
        return classes

    def up_closure(self, a) -> frozenset:
        return self._labels_of(self._rows[self._i(a)])

    def down_closure(self, a) -> frozenset:
        return self._labels_of(_transpose(self._rows)[self._i(a)])

    def classes(self) -> tuple:
        """Equivalence classes of mutual comparability, ordered by least label."""
        return tuple(map(self._labels_of, self._classes().values()))

    def class_of(self, a) -> frozenset:
        return self._labels_of(self._classes()[self._rows[self._i(a)]])

    @property
    def rank(self) -> int:
        return len(set(self._rows))

    def is_partial_order(self) -> bool:
        return self.rank == len(self._rows)

    def is_discrete(self) -> bool:
        return all(row == 1 << i for i, row in enumerate(self._rows))

    def global_minima(self) -> frozenset:
        """Labels below every label; one equivalence class when nonempty."""
        full = (1 << len(self._labels)) - 1
        return frozenset(a for i, a in enumerate(self._labels) if self._rows[i] == full)

    def minimal_labels(self) -> frozenset:
        """Labels whose row no other row strictly contains."""
        rows = self._rows
        return frozenset(
            a for a, ra in zip(self._labels, rows)
            if not any(r != ra and r & ra == ra for r in rows)
        )

    def is_lower_set(self, s) -> bool:
        mask = self._mask(frozenset(s))
        return all(row & mask == 0 for i, row in enumerate(self._rows) if not mask >> i & 1)

    def is_upper_set(self, s) -> bool:
        mask = self._mask(frozenset(s))
        return all(self._rows[i] & ~mask == 0 for i in bits(mask))

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
        """The principal up-closures, one per equivalence class: the distinct rows.

        With ``brute_force=True`` the result is recomputed from the
        definition: upper sets that are not unions of two proper upper
        subsets (the irreducible closed sets of the preorder topology).
        """
        principal = [self._labels_of(row) for row in sorted(set(self._rows), key=lambda r: tuple(bits(r)))]
        if brute_force:
            uppers = [
                frozenset(sub)
                for k in range(1, len(self._labels) + 1)
                for sub in itertools.combinations(self._labels, k)
                if self.is_upper_set(sub)
            ]
            irr = []
            for u in uppers:
                proper = [w for w in uppers if w < u]
                if not any(w1 | w2 == u for w1 in proper for w2 in proper):
                    irr.append(u)
            assert sorted(irr, key=lambda s: tuple(map(label_key, sort_labels(s)))) == principal
        return principal

    def restrict(self, s) -> "Preorder":
        labels = sort_labels(set(s))
        old = [self._i(a) for a in labels]
        rows = tuple(sum(1 << j for j, k in enumerate(old) if self._rows[i] >> k & 1) for i in old)
        return Preorder._family(labels, [rows])[0]

    def with_pairs(self, pairs) -> "Preorder":
        """Closure of this preorder together with extra related pairs."""
        return Preorder.from_relations(self._labels, self.pairs() + list(pairs))

    def contains(self, other: "Preorder") -> bool:
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

    def quotient(self) -> "QuotientPoset":
        """Class ``i`` lies below class ``j`` when the row of ``j`` is a strict
        subset of the row of ``i``; a Hasse cover has no class in between."""
        classes = self._classes()
        rows = list(classes)
        above = [sum(1 << j for j, r in enumerate(rows) if r != ri and r & ri == r) for ri in rows]
        hasse = []
        for i, up in enumerate(above):
            through = 0
            for k in bits(up):
                through |= above[k]
            hasse += [(i, j) for j in bits(up & ~through)]
        less = frozenset((i, j) for i, up in enumerate(above) for j in bits(up))
        labels = tuple(tuple(self._labels[j] for j in bits(m)) for m in classes.values())
        return QuotientPoset(labels, less, tuple(hasse))

    def __eq__(self, other):
        if not isinstance(other, Preorder):
            return NotImplemented
        return self._labels == other._labels and self._rows == other._rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rel = ", ".join(f"{a}≼{b}" for a, b in self.pairs())
        return f"Preorder({list(self._labels)}, [{rel}])"


@dataclass(frozen=True)
class QuotientPoset:
    """The poset of equivalence classes of a preorder, with Hasse covers."""

    classes: tuple  # each class a sorted tuple of labels, ordered by least label
    less: frozenset  # strict order as (i, j) index pairs
    hasse: tuple  # covering pairs (i, j), i.e. consecutive classes

    @property
    def rank(self) -> int:
        return len(self.classes)

    def class_index(self, label) -> int:
        for i, c in enumerate(self.classes):
            if label in c:
                return i
        raise UnknownLabelError(f"unknown label {label!r}")

    def roots(self) -> tuple:
        """Indices of minimal classes."""
        above = {j for _, j in self.less}
        return tuple(i for i in range(len(self.classes)) if i not in above)

    def parents(self) -> dict:
        """Map a class index to its unique Hasse predecessor, when one exists."""
        out = {}
        for i, j in self.hasse:
            if j in out:
                raise ValueError(f"class {j} covers more than one class")
            out[j] = i
        return out

    def is_forest_of_rooted_trees(self) -> bool:
        try:
            self.parents()
        except ValueError:
            return False
        return True

    def consecutive(self, i: int, j: int) -> bool:
        return (i, j) in set(self.hasse)

    def reachability_reconstructs(self, p: Preorder) -> bool:
        """Hasse covers plus class membership regenerate the original order."""
        n = len(self.classes)
        reach = [set() for _ in range(n)]
        for i, j in self.hasse:
            reach[i].add(j)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                new = set()
                for j in reach[i]:
                    new |= reach[j]
                if not new <= reach[i]:
                    reach[i] |= new
                    changed = True
        derived = {(i, j) for i in range(n) for j in reach[i]}
        if derived != set(self.less):
            return False
        for a in p.ground:
            for b in p.ground:
                ia, ib = self.class_index(a), self.class_index(b)
                if p.leq(a, b) != (ia == ib or (ia, ib) in self.less):
                    return False
        return True


def all_preorders(ground):
    """Every preorder on ``ground``, by brute force; guard at ``BRUTE_FORCE_LABELS`` labels."""
    labels = sort_labels(set(ground))
    n = len(labels)
    if n > BRUTE_FORCE_LABELS:
        raise GuardExceededError(f"brute-force preorder enumeration capped at {BRUTE_FORCE_LABELS} labels")
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        m = mask
        for (i, j) in offdiag:
            if m & 1:
                rows[i] |= 1 << j
            m >>= 1
        ok = True
        for i in range(n):
            acc = rows[i]
            row = rows[i]
            j = 0
            while row:
                if row & 1:
                    acc |= rows[j]
                row >>= 1
                j += 1
            if acc != rows[i]:
                ok = False
                break
        if ok:
            yield Preorder._family(labels, [tuple(rows)])[0]
