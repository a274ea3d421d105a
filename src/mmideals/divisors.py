"""Divisor arithmetic: floors, unloading, antinef closures.

The central object is the antinef closure: the least antinef divisor with
integer coefficients dominating a given one.  It is computed by Enriques'
unloading, one full sweep at a time: collect every exceptional component with
negative excess, raise each by ceil(rho_i / E_i^2), repeat until the excess
vector is nonnegative.  On negative definite trees this converges and the
fixed point is independent of sweep order.

The ideal at a point lam of the orthant is encoded by the antinef closure of
floor(sum_i lam_i F_i - K), and the ideal just before lam (the "left limit")
by floors nudged down at integer values.  Both live on the per-point context
`RegionEngine.at(lam)` in :mod:`mmideals.regions`, which keeps lam . F - K as
integer numerators over one denominator; divisors there are built from ints.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    GraphMismatch,
    NonIntegralDivisor,
    NonTermination,
    PreconditionViolated,
)
from .graph import DualGraph, _as_fraction

__all__ = [
    "Divisor",
    "is_antinef",
    "unload_once",
    "antinef_closure",
    "parse_point",
]

MAX_UNLOAD_ITERS = 10**6  # sweeps per closure before NonTermination


class Divisor:
    """A divisor with rational coefficients on a :class:`DualGraph`.

    Coefficients run over the global component index (exceptional, then
    affine).  Each is an ``int`` when it is integral and a ``Fraction``
    otherwise.  Instances are immutable and hashable.  Equality and the
    arithmetic check the graph by identity: divisors compare and combine only
    within one graph object.
    """

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph: DualGraph, coeffs: Sequence):
        if len(coeffs) != graph.n_total:
            raise DimensionMismatch(
                f"expected {graph.n_total} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "graph", graph)
        exact = (c if type(c) is int else Fraction(c) for c in coeffs)
        object.__setattr__(self, "coeffs", tuple(q.numerator if q.denominator == 1 else q for q in exact))

    @classmethod
    def _of_ints(cls, graph: DualGraph, coeffs: Sequence[int]) -> "Divisor":
        """Constructor for a full-length sequence of ints: nothing to normalise."""
        divisor = object.__new__(cls)
        object.__setattr__(divisor, "graph", graph)
        object.__setattr__(divisor, "coeffs", tuple(coeffs))
        return divisor

    def __setattr__(self, *args):
        raise AttributeError("Divisor is immutable")

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and self.graph is other.graph
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Divisor(" + ", ".join(str(c) for c in self.coeffs) + ")"

    def _check_same_graph(self, other: "Divisor"):
        if self.graph is not other.graph:
            raise GraphMismatch("divisors live on different graphs")

    # -- arithmetic -------------------------------------------------------

    def _combine(self, op, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        make = Divisor._of_ints if self.is_integral() and other.is_integral() else Divisor
        return make(self.graph, list(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other: "Divisor") -> "Divisor":
        return self._combine(operator.add, other)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self._combine(operator.sub, other)

    def scaled(self, q) -> "Divisor":
        q = Fraction(q)
        return Divisor(self.graph, [q * c for c in self.coeffs])

    def floor(self) -> "Divisor":
        return Divisor._of_ints(self.graph, map(math.floor, self.coeffs))

    def ceil(self) -> "Divisor":
        return Divisor._of_ints(self.graph, map(math.ceil, self.coeffs))

    def le(self, other: "Divisor") -> bool:
        """Componentwise <= (the divisor partial order)."""
        self._check_same_graph(other)
        return all(map(operator.le, self.coeffs, other.coeffs))

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def exceptional_part(self) -> tuple[int | Fraction, ...]:
        return self.coeffs[: self.graph.n_exc]

    def as_ints(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise NonIntegralDivisor("divisor has fractional coefficients")
        return self.coeffs


def is_antinef(divisor: Divisor) -> bool:
    """True when D . E_i <= 0 for every exceptional component (affine
    coefficients contribute to the products but carry no constraint)."""
    g = divisor.graph
    return all(g.dot_exceptional(divisor.coeffs, i) <= 0 for i in range(g.n_exc))


def unload_once(divisor: Divisor) -> Divisor:
    """One unloading sweep.

    Rounds coefficients up to integers, then raises every exceptional
    component with negative excess by ceil(rho_i / E_i^2) >= 1, all in one
    pass.  A divisor that is already antinef (after the rounding) comes back
    unchanged, which is the loop's fixed-point test.
    """
    g = divisor.graph
    coeffs = [math.ceil(c) for c in divisor.coeffs]
    bumped = coeffs[:]
    for i in range(g.n_exc):
        rho = -g.dot_exceptional(coeffs, i)
        if rho < 0:
            step = -(-rho // g.self_int[i])
            if step < 1:
                raise PreconditionViolated("unloading step collapsed; corrupt graph data")
            bumped[i] += step
    return Divisor._of_ints(g, bumped)


def antinef_closure(divisor: Divisor) -> Divisor:
    """Least integral antinef divisor dominating `divisor`.

    Iterates :func:`unload_once` to its fixed point.  The iteration count is
    capped at MAX_UNLOAD_ITERS; hitting the cap raises NonTermination, since
    on valid negative definite input the loop always terminates.
    """
    current = divisor.ceil()
    for _ in range(MAX_UNLOAD_ITERS):
        bumped = unload_once(current)
        if bumped == current:
            return current
        current = bumped
    raise NonTermination(f"unloading did not stabilize within MAX_UNLOAD_ITERS = {MAX_UNLOAD_ITERS} sweeps")


def parse_point(lam, r: int) -> tuple[Fraction, ...]:
    """Coerce a point of the parameter orthant to exact rationals.

    Accepts a sequence of ints / Fractions / 'p/q' strings; floats are
    rejected.  Coordinates must be nonnegative and there must be exactly one
    per ideal.
    """
    coords = tuple(_as_fraction(c, "lambda") for c in lam)
    if len(coords) != r:
        raise DimensionMismatch(f"point has {len(coords)} coordinates, expected {r}")
    if any(c < 0 for c in coords):
        raise PreconditionViolated("lambda must lie in the nonnegative orthant")
    return coords
