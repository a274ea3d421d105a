"""Exception hierarchy.

Every error raised on purpose by this package derives from :class:`MMIError`
and carries the process exit code the command line tool maps it to:
2 for rejected input or a request over a size cap, 3 for geometry the
engine does not support, 4 for a broken internal invariant (always a bug).
"""

from __future__ import annotations


class MMIError(Exception):
    exit_code = 2


class DuplicateId(MMIError):
    """Two components (or two ideals) share an id."""


class DanglingReference(MMIError):
    """An edge, arrow or multiplicity key names an unknown component."""


class NotATree(MMIError):
    """The exceptional graph is not a tree (disconnected, cyclic, or a
    self/duplicate edge), or an affine arrow crosses one component twice."""


class NotNegativeDefinite(MMIError):
    """The exceptional intersection matrix fails the pivot test."""


class DimensionMismatch(MMIError):
    """A coefficient vector has the wrong length for its graph."""


class NonIntegralDivisor(MMIError):
    """A divisor coefficient or an input multiplicity is not an integer."""


class GraphMismatch(MMIError):
    """Two divisors living on different graphs were combined."""


class PreconditionViolated(MMIError):
    """A documented precondition failed (negative multiplicity, non-antinef
    ideal divisor, float coordinate, ...)."""


class ZeroPoint(MMIError):
    """Left limits and jumping tests are undefined at the origin."""


class NotAJumpingPoint(MMIError):
    """The point carries no jump, so it has no minimal jumping divisor."""


class IntegralityViolated(MMIError):
    """A candidate divisor contains a component whose value is not an
    integer, so the contribution test is meaningless there."""


class LimitReached(MMIError):
    """A request reached a size cap (ENUMERATION_GUARD, CHAIN_GUARD in
    :mod:`mmideals.regions`): it asks for too much, which is not a bug."""


class UnsupportedGeometry(MMIError):
    """Wall walking is exact for one or two ideals only."""

    exit_code = 3


class GeometryDegeneracy(MMIError):
    """A facet computation produced geometry that cannot occur for valid
    input; indicates a bug rather than bad data."""

    exit_code = 4


class NonTermination(MMIError):
    """The unloading iteration guard tripped (see divisors.MAX_UNLOAD_ITERS)."""

    exit_code = 4


class InternalInvariant(MMIError):
    """A theorem the implementation relies on failed at runtime."""

    exit_code = 4
