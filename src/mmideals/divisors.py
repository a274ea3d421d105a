"""Divisor arithmetic: floors, unloading, antinef closures.

The central object is the antinef closure: the least antinef divisor with
integer coefficients dominating a given one.  It is computed by Enriques'
unloading, one full sweep at a time: collect every exceptional component with
negative excess, raise each by ceil(rho_i / E_i^2), repeat until the excess
vector is nonnegative.  On negative definite trees this converges and the
fixed point is independent of sweep order.

Mixed multiplier ideals are then a two-liner: the ideal at a point lam of the
nonnegative orthant is encoded by the antinef closure of
floor(sum_i lam_i F_i - K), and the ideal just before lam (the "left limit")
by the same expression with floors nudged down at integer values.  Both live
on the per-point context `RegionEngine.at(lam)` in :mod:`mmideals.regions`.
"""

from __future__ import annotations

import math
import os
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

DEFAULT_MAX_UNLOAD_ITERS = 10**6


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

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scaled(self, q) -> "Divisor":
        q = Fraction(q)
        return Divisor(self.graph, [q * c for c in self.coeffs])

    def floor(self) -> "Divisor":
        return Divisor(self.graph, [math.floor(c) for c in self.coeffs])

    def ceil(self) -> "Divisor":
        return Divisor(self.graph, [math.ceil(c) for c in self.coeffs])

    def le(self, other: "Divisor") -> bool:
        """Componentwise <= (the divisor partial order)."""
        self._check_same_graph(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

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
    updates: list[tuple[int, int]] = []
    for i in range(g.n_exc):
        rho = -g.dot_exceptional(coeffs, i)
        if rho < 0:
            step = -(-rho // g.self_int[i])
            if step < 1:
                raise PreconditionViolated("unloading step collapsed; corrupt graph data")
            updates.append((i, step))
    if not updates:
        return Divisor(g, coeffs)
    for i, step in updates:
        coeffs[i] += step
    return Divisor(g, coeffs)


def _max_unload_iters() -> int:
    raw = os.environ.get("MMI_MAX_UNLOAD_ITERS")
    if raw is None:
        return DEFAULT_MAX_UNLOAD_ITERS
    try:
        value = int(raw)
    except ValueError as exc:
        raise PreconditionViolated(f"MMI_MAX_UNLOAD_ITERS={raw!r} is not an integer") from exc
    if value < 1:
        raise PreconditionViolated("MMI_MAX_UNLOAD_ITERS must be positive")
    return value


def antinef_closure(divisor: Divisor) -> Divisor:
    """Least integral antinef divisor dominating `divisor`.

    Iterates :func:`unload_once` to its fixed point.  The iteration count is
    capped (the MMI_MAX_UNLOAD_ITERS environment variable, else 10**6);
    hitting the cap raises NonTermination with the trace length, since on
    valid negative definite input the loop always terminates.
    """
    cap = _max_unload_iters()
    current = divisor.ceil()
    for _ in range(cap):
        bumped = unload_once(current)
        if bumped == current:
            return current
        current = bumped
    raise NonTermination(f"unloading did not stabilize within {cap} sweeps")


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
