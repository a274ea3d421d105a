"""Divisor arithmetic: unloading and antinef closures.

A :class:`Divisor` is an integer vector over the components of a graph:
every ideal divisor, floor and closure is integral.  The one rational vector
the algorithm reads, the relative canonical divisor K, is a plain tuple from
:func:`mmideals.graph.relative_canonical`.

The central object is the antinef closure: the least antinef divisor
dominating a given one.  It is computed by Enriques' unloading on a
worklist: a component with negative excess rises by ceil(rho_i / E_i^2) and
only its neighbours are checked again.  Every raise is forced, so on
negative definite trees the fixed point does not depend on their order
(Casas-Alvero, *Singularities of Plane Curves*, LMS LN 276).

The ideal at a point lam of the orthant is encoded by the antinef closure of
floor(sum_i lam_i F_i - K), and the ideal just before lam (the "left limit")
by floors nudged down at integer values: both on the per-point context
`RegionEngine.at(lam)` in :mod:`mmideals.regions`, built from ints.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import (
    DimensionMismatch,
    GraphMismatch,
    NonIntegralDivisor,
    NonTermination,
    PreconditionViolated,
)
from .graph import DualGraph

__all__ = [
    "Divisor",
    "is_antinef",
    "unload_once",
    "antinef_closure",
]

MAX_UNLOAD_ITERS = 10**6  # rounds per closure before NonTermination


class Divisor:
    """A divisor with integer coefficients on a :class:`DualGraph`.

    Coefficients run over the global component index (exceptional, then
    affine), each an ``int``.  Instances are immutable and hashable.
    Equality and the arithmetic check the graph by identity: divisors compare
    and combine only within one graph object.
    """

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph: DualGraph, coeffs: Sequence[int]):
        if len(coeffs) != graph.n_total:
            raise DimensionMismatch(
                f"expected {graph.n_total} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if type(c) is not int:
                raise NonIntegralDivisor(f"divisor coefficients must be ints, got {c!r}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _of_ints(cls, graph: DualGraph, coeffs: Sequence[int]) -> "Divisor":
        """Constructor for a full-length sequence of ints: nothing to check."""
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
        return Divisor._of_ints(self.graph, map(op, self.coeffs, other.coeffs))

    def __add__(self, other: "Divisor") -> "Divisor":
        return self._combine(operator.add, other)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self._combine(operator.sub, other)

    def le(self, other: "Divisor") -> bool:
        """Componentwise <= (the divisor partial order)."""
        self._check_same_graph(other)
        return all(map(operator.le, self.coeffs, other.coeffs))


def is_antinef(divisor: Divisor) -> bool:
    """True when D . E_i <= 0 for every exceptional component (affine
    coefficients contribute to the products but carry no constraint)."""
    g = divisor.graph
    return all(g.dot_exceptional(divisor.coeffs, i) <= 0 for i in range(g.n_exc))


def unload_once(divisor: Divisor) -> Divisor:
    """One unloading sweep.

    Raises every exceptional component with negative excess by
    ceil(rho_i / E_i^2) >= 1, all in one pass.  A divisor that is already
    antinef comes back unchanged: iterated to that fixed point, this is the
    reference for :func:`antinef_closure`.
    """
    g = divisor.graph
    coeffs = divisor.coeffs
    bumped = list(coeffs)
    for i in range(g.n_exc):
        rho = -g.dot_exceptional(coeffs, i)
        if rho < 0:
            step = -(-rho // g.self_int[i])
            if step < 1:
                raise PreconditionViolated("unloading step collapsed; corrupt graph data")
            bumped[i] += step
    return Divisor._of_ints(g, bumped)


def antinef_closure(divisor: Divisor) -> Divisor:
    """Least antinef divisor dominating `divisor`.

    Round 1 checks every exceptional component, each later round the
    exceptional neighbours of those the round before raised; a round that
    raises nothing ends it, in no more rounds than :func:`unload_once` takes
    sweeps to its fixed point.  An antinef divisor comes back as itself.
    Past MAX_UNLOAD_ITERS rounds it raises NonTermination.
    """
    g = divisor.graph
    n, self_int, adjacency = g.n_exc, g.self_int, g.adjacency
    coeffs = list(divisor.coeffs)
    queue = range(n)
    for rounds in range(1, MAX_UNLOAD_ITERS + 1):
        raised = []
        for i in queue:
            dot = self_int[i] * coeffs[i]  # D . E_i
            for j in adjacency[i]:
                dot += coeffs[j]
            if dot > 0:  # rise by ceil(D . E_i / -E_i^2)
                coeffs[i] -= dot // self_int[i]
                raised.append(i)
        if not raised:
            return divisor if rounds == 1 else Divisor._of_ints(g, coeffs)
        queue = {j for i in raised for j in adjacency[i] if j < n}
    raise NonTermination(
        f"unloading did not stabilize within MAX_UNLOAD_ITERS = {MAX_UNLOAD_ITERS} sweeps: "
        f"{g.exc_ids[raised[0]]} still rising after {rounds} rounds"
    )

