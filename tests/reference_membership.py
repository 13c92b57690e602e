"""Cone membership and the torus-relation test as they ran on ``Fraction``s.

``RationalCone`` now tests the signs of its integer equality and facet
rows at an integer multiple of the point, and ``LaurentRelation.holds_at``
cross-multiplies numerators and denominators.  The bodies below are the
methods they replaced, copied verbatim with ``self`` made the first
argument: a cone built with halfspaces tested them, and every other cone
solved for the point in its ray basis over ``Fraction``s.  ``Cone`` holds
the fields of the old ``RationalCone`` those bodies read, and binds them as
its methods, so a call from one of them to another stays in this module.
They are the reference the integer versions are tested against.
``evaluate`` is the old ``LaurentRelation.evaluate``, the ``Fraction``
product ``holds_at`` compared with 1.

``meets`` and ``plan_contains`` are ``RationalCone._meets`` and
``RationalCone.contains`` on integer rows and comparison plans as they were
before ``_meets`` read the plan from its slot and tested it with early-exit
loops and ``contains`` took exact points past ``cones._exact``.  They are
copied verbatim with ``self`` made the first argument; ``plan_contains``
calls ``meets`` where it called ``self._meets``.  ``containing`` is
``cones.containing`` with the same one change, so it runs ``meets`` too.
``meets`` compares coordinates with ``Fraction``'s own operators, where
``_meets`` now cross-multiplies numerators and denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from enrichfan.cones import _exact
from enrichfan.lattices import dot
from reference_lattices import solve_columns


def coefficients_of(self, x):
    """Exact coordinates of ``x`` in the ray basis, or None outside the span."""
    return solve_columns(self.rays, tuple(x))


def closure_contains(self, x) -> bool:
    lam = self.coefficients_of(x)
    return lam is not None and all(v >= 0 for v in lam)


def interior_contains(self, x) -> bool:
    """Membership in the relative interior of the closure."""
    lam = self.coefficients_of(x)
    return lam is not None and all(v > 0 for v in lam)


def contains(self, x) -> bool:
    """Membership in the cone as described (open cones: their interior)."""
    if self.halfspaces is not None:
        return all(h.holds(x) for h in self.halfspaces)
    return self.closure_contains(x) if self.closed else self.interior_contains(x)


@dataclass(frozen=True)
class Cone:
    """The rays, the ``closed`` flag and the optional ``Halfspace`` tuple
    (``reference_lattices``) of an old ``RationalCone``."""

    rays: tuple
    closed: bool = True
    halfspaces: tuple = None

    coefficients_of = coefficients_of
    closure_contains = closure_contains
    interior_contains = interior_contains
    contains = contains


def evaluate(self, point: dict) -> Fraction:
    """Product of x_e^exp over all terms; the relation holds at 1."""
    num = Fraction(1)
    for _, e, exp in self.terms:
        num *= Fraction(point[e]) ** exp
    return num


def holds_at(self, point: dict) -> bool:
    return evaluate(self, point) == 1


def meets(self, x) -> bool:
    """Membership of the exact point ``x`` from :func:`_exact`."""
    plan = self._comparisons()
    if not plan:
        equalities, facets = ([dot(row, x) for row in rows] for rows in self.h_description())
        return not any(equalities) and all(v >= 0 if self.closed else v > 0 for v in facets)
    equalities, facets = plan
    for i, j in equalities:
        if x[i] != x[j]:
            return False
    return all(x[i] >= x[j] for i, j in facets) if self.closed else all(x[i] > x[j] for i, j in facets)


def plan_contains(self, x) -> bool:
    """Membership in the cone as described (open cones: their interior)."""
    return meets(self, _exact(x, len(self.labels)))


def containing(cones, x) -> list:
    """Indices of the cones (each as described) that contain ``x``.

    The cones share one ambient lattice, as the cones of one graph or one
    fan do, so ``x`` is checked against the first cone's and made exact once.
    """
    if not cones:
        return []
    x = _exact(x, len(cones[0].labels))
    return [i for i, cone in enumerate(cones) if meets(cone, x)]
