"""Finite preorders on label sets: closure, quotient posets, upper sets.

A preorder is stored densely as one bitmask row per label over the sorted
ground set: bit ``j`` of row ``i`` is set when ``ground[i] ≼ ground[j]``,
so row ``i`` is the principal upper set of ``ground[i]``.  Rows are closed,
and two identities read the rest off them: labels ``i`` and ``j`` are
equivalent exactly when ``rows[i] == rows[j]``, and ``i`` lies strictly
below ``j`` exactly when ``rows[j]`` is a strict subset of ``rows[i]``.
Classes, the quotient order and the principal upper sets are therefore the
distinct rows and their inclusions, and so are lower sets, which
``enriched._faces`` reads off the faces.  Ground sets here never exceed a
dozen labels, so simplicity wins over asymptotics.
"""

from __future__ import annotations

import itertools

from .errors import UnknownLabelError
from .graphs import _Value, bits, label_key, sort_labels


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
        if not all(type(row) is int and 0 <= row < 1 << len(labels) for row in rows):
            raise ValueError("a relation row is not an int, or has bits outside the ground set")
        if _closed(list(rows)) != rows:
            raise ValueError("relation is not reflexively and transitively closed")
        self._labels = labels
        self._index = index
        self._rows = tuple(rows)

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

    def pairs(self) -> list:
        """All related pairs (a, b) with a ≼ b and a != b, read off the set bits of each row."""
        labels = self._labels
        return [(a, labels[j]) for i, (a, row) in enumerate(zip(labels, self._rows)) for j in bits(row & ~(1 << i))]

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

    def classes(self) -> tuple:
        """Equivalence classes of mutual comparability, ordered by least label."""
        return tuple(map(self._labels_of, self._classes().values()))

    @property
    def rank(self) -> int:
        return len(set(self._rows))

    def is_partial_order(self) -> bool:
        return self.rank == len(self._rows)

    def is_upper_set(self, s) -> bool:
        mask = self._mask(frozenset(s))
        return all(self._rows[i] & ~mask == 0 for i in bits(mask))

    def irreducible_upper_sets(self, brute_force: bool = False) -> list:
        """The principal up-closures, one per equivalence class: the distinct
        rows, ordered by their sorted labels.

        With ``brute_force=True`` they are computed from the definition
        instead: the upper sets that are not unions of two proper upper
        subsets (the irreducible closed sets of the preorder topology).
        """
        if not brute_force:
            return [self._labels_of(row) for row in sorted(set(self._rows), key=lambda r: tuple(bits(r)))]
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
        return sorted(irr, key=lambda s: tuple(map(label_key, sort_labels(s))))

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
        if not hasattr(self, "_hash"):  # left unset until first asked for
            self._hash = hash((self._labels, self._rows))
        return self._hash

    def __repr__(self):
        rel = ", ".join(f"{a}≼{b}" for a, b in self.pairs())
        return f"Preorder({list(self._labels)}, [{rel}])"


class QuotientPoset(_Value):
    """The poset of equivalence classes of a preorder, with Hasse covers."""

    __slots__ = ("classes", "less", "hasse")

    def __init__(self, classes: tuple, less: frozenset, hasse: tuple):
        self.classes = classes  # each class a sorted tuple of labels, ordered by least label
        self.less = less  # strict order as (i, j) index pairs
        self.hasse = hasse  # covering pairs (i, j), i.e. consecutive classes

    @property
    def rank(self) -> int:
        return len(self.classes)
