"""Cone membership and the torus-relation test as they ran on ``Fraction``s.

``RationalCone.contains`` now scales its point to integers before the
halfspace tests, and ``LaurentRelation.holds_at`` cross-multiplies
numerators and denominators.  The bodies below are the methods they
replaced, copied verbatim with ``self`` made the first argument; they are
the reference the integer versions are tested against.
"""

from __future__ import annotations


def contains(self, x) -> bool:
    """Membership in the cone as described (open cones: their interior)."""
    if self.halfspaces is not None:
        return all(h.holds(x) for h in self.halfspaces)
    return self.closure_contains(x) if self.closed else self.interior_contains(x)


def holds_at(self, point: dict) -> bool:
    return self.evaluate(point) == 1
