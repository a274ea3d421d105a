"""Dual graphs of resolutions and the divisor combinatorics living on them.

A :class:`DualGraph` is the weighted dual graph of a resolution of a complex
surface singularity with rational singularities: a tree of exceptional
rational curves, each weighted by its (negative) self-intersection, plus a
list of affine arrows recording where the strict transforms of curve germs
cross the exceptional locus.  The exceptional intersection matrix M must be
negative definite; one integer elimination over the tree tests that and
gives the relative canonical divisor K = X / det(-M) with X integral.

Components are indexed globally: exceptional components first, in input
order, then affine components.  Divisors are integer coefficient vectors over
that global index (:meth:`DualGraph.coefficients` turns input multiplicities
into one); affine arrows never receive corrections but they do contribute to
intersection products through the components they cross.  K is the one
rational vector: a tuple over the same index, an int where it is integral.
`DualGraph.adjacency` lists per component every component it meets
(exceptional neighbours and affine crossings alike); products and the tree
order read it.  `IdealDivisorSet.support` holds the global indices where
some ideal divisor is positive.
"""

from __future__ import annotations

import functools
from collections import abc
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    DanglingReference,
    DimensionMismatch,
    DuplicateId,
    GraphMismatch,
    InternalInvariant,
    NonIntegralDivisor,
    NotATree,
    NotNegativeDefinite,
    PreconditionViolated,
)

__all__ = [
    "DualGraph",
    "IdealDivisorSet",
    "validate_graph",
    "relative_canonical",
]


def _as_fraction(value, what: str) -> Fraction:
    """Exact coercion; floats are rejected because they are already rounded."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise PreconditionViolated(f"{what}: boolean is not a number")
    if isinstance(value, float):
        raise PreconditionViolated(
            f"{what}: float {value!r} is inexact, pass an int, Fraction or 'p/q' string"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # no exponent notation: "1e5000" parses to an integer too long to print
            if "e" in value.lower():
                raise ValueError("exponent notation")
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionViolated(f"{what}: cannot parse {value!r} as a rational") from exc
    raise PreconditionViolated(f"{what}: unsupported value {value!r}")


def _refuse_non_sequence(values, what: str, items: str):
    """Refuse a bare string (it would be read one item per character) and
    anything else that is not a sequence."""
    if isinstance(values, str) or not isinstance(values, abc.Sequence):
        got = f"the string {values!r}" if isinstance(values, str) else f"{type(values).__name__} {values!r}"
        raise PreconditionViolated(f"{what}: expected a sequence of {items}, got {got}")


class DualGraph:
    """Validated dual graph.  Build one with :func:`validate_graph`."""

    def __init__(
        self,
        exc_ids: tuple[str, ...],
        self_int: tuple[int, ...],
        edges: tuple[tuple[int, int], ...],
        aff_ids: tuple[str, ...],
        aff_meets: tuple[tuple[int, ...], ...],
    ):
        self.exc_ids = exc_ids
        self.self_int = self_int
        self.edges = edges
        self.aff_ids = aff_ids
        self.aff_meets = aff_meets

        self.ids: tuple[str, ...] = exc_ids + aff_ids
        self.n_exc = len(exc_ids)
        self.n_aff = len(aff_ids)
        self.n_total = self.n_exc + self.n_aff
        self.index: dict[str, int] = dict(zip(self.ids, range(self.n_total)))

        # Every pair of components with intersection 1, exceptional edges and
        # affine crossings alike; each row sorted, so exceptional neighbours
        # come first.
        adjacency: list[list[int]] = [[] for _ in range(self.n_total)]
        for i, j in edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        for a, meets in enumerate(aff_meets, self.n_exc):
            for i in meets:
                adjacency[i].append(a)
                adjacency[a].append(i)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(row)) for row in adjacency)

        # Breadth-first order of the exceptional components reached from
        # component 0, each with its parent (-1 at the root).
        parent = {0: -1}
        order = [0]
        for i in order:
            for j in self.adjacency[i]:
                if j < self.n_exc and j not in parent:
                    parent[j] = i
                    order.append(j)
        self.tree_order: tuple[tuple[int, int], ...] = tuple((i, parent[i]) for i in order)

    @functools.cached_property
    def canonical_numerators(self) -> tuple[list[int], int]:
        """(X, D) with M X = D * b, b_i = -2 - E_i^2: the relative canonical
        divisor as X / D, solved and checked on integers once per graph,
        when it is validated; raises NotNegativeDefinite."""
        rhs = [-2 - s for s in self.self_int]
        nums, det = _tree_solve(self, rhs)
        for x, s, b, row in zip(nums, self.self_int, rhs, self.adjacency):
            dot = s * x  # (M X)_i: rows list exceptional neighbours first
            for j in row:
                if j >= self.n_exc:
                    break
                dot += nums[j]
            if dot != det * b:
                raise InternalInvariant("adjunction check failed for the relative canonical divisor")
        return nums, det

    # -- identity -----------------------------------------------------------

    def _key(self):
        return (self.exc_ids, self.self_int, self.edges, self.aff_ids, self.aff_meets)

    def __eq__(self, other):
        return isinstance(other, DualGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DualGraph({self.n_exc} exceptional, {self.n_aff} affine)"

    # -- products -----------------------------------------------------------

    def dot_exceptional(self, coeffs: Sequence[int], i: int) -> int:
        """Intersection product D . E_i for a divisor with the given global
        coefficient vector and the i-th exceptional component."""
        total = self.self_int[i] * coeffs[i]
        for j in self.adjacency[i]:
            total += coeffs[j]
        return total

    def coefficients(self, mapping: Mapping[str, object], what: str = "divisor") -> list[int]:
        """Turn an id->value mapping into a global vector of integer
        coefficients.

        Missing ids default to 0; unknown ids raise DanglingReference.  Values
        are parsed exactly, so "6/2" is 3; a value that is not an integer
        raises NonIntegralDivisor once every value has parsed.
        """
        coeffs: list = [0] * self.n_total
        exact = True
        for cid, value in mapping.items():
            i = self.index.get(cid)
            if i is None:
                raise DanglingReference(f"{what}: unknown component id {cid!r}")
            if type(value) is not int:
                value = _as_fraction(value, f"{what}[{cid}]")
                exact = False
            coeffs[i] = value
        if exact:
            return coeffs
        if any(c.denominator != 1 for c in coeffs):
            raise NonIntegralDivisor(f"{what}: multiplicities must be integers")
        return [c.numerator for c in coeffs]


def _list_of(value, kind, what: str):
    """`value` checked to be a list whose entries are all `kind`: objects
    (dict) for components and ideals, pairs (list or tuple) for edges."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, kind) for v in value):
        noun = "objects" if kind is dict else "pairs"
        raise PreconditionViolated(f"{what} must be a list of {noun}")
    return value


def validate_graph(raw: Mapping) -> DualGraph:
    """Validate raw graph data (parsed JSON) and build a :class:`DualGraph`.

    Checks, in order: the JSON shape, unique ids, edges/arrows referencing
    known components, the exceptional graph being a tree, and negative
    definiteness of the intersection matrix.  Each list is read once, and
    every id is looked up in one index of all ids.
    """
    exc_raw = raw.get("exceptional")
    if not exc_raw:
        raise PreconditionViolated("graph needs at least one exceptional component")

    exc_ids: list[str] = []
    self_int: list[int] = []
    for entry in _list_of(exc_raw, dict, "'exceptional'"):
        cid = entry.get("id")
        if not isinstance(cid, str) or not cid:
            raise PreconditionViolated(f"exceptional component without a usable id: {entry!r}")
        self_raw = entry.get("self")
        if isinstance(self_raw, bool) or not isinstance(self_raw, int):
            raise PreconditionViolated(f"{cid}: self-intersection must be an integer, got {self_raw!r}")
        exc_ids.append(cid)
        self_int.append(self_raw)

    aff_ids: list[str] = []
    aff_meets_ids: list[Sequence[str]] = []
    for entry in _list_of(raw.get("affine", []), dict, "'affine'"):
        cid = entry.get("id")
        if not isinstance(cid, str) or not cid:
            raise PreconditionViolated(f"affine component without a usable id: {entry!r}")
        meets = entry.get("meets", [])
        if not isinstance(meets, (list, tuple)) or not meets or not all(isinstance(m, str) for m in meets):
            raise PreconditionViolated(f"{cid}: affine component must cross at least one exceptional component id")
        aff_ids.append(cid)
        aff_meets_ids.append(meets)

    ids = exc_ids + aff_ids
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        seen: set[str] = set()
        for cid in ids:
            if cid in seen:
                raise DuplicateId(f"component id {cid!r} appears twice")
            seen.add(cid)
    n = len(exc_ids)

    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for pair in _list_of(raw.get("edges", []), (list, tuple), "'edges'"):
        if len(pair) != 2 or not (isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise PreconditionViolated(f"edge must join exactly two component ids: {pair!r}")
        a, b = pair
        i, j = index.get(a, n), index.get(b, n)
        if i >= n or j >= n:
            for cid in (a, b):
                if cid not in index:
                    raise DanglingReference(f"edge {pair!r}: unknown component id {cid!r}")
                if index[cid] >= n:
                    raise DanglingReference(f"edge {pair!r}: {cid!r} is not an exceptional component")
        if i == j:
            raise NotATree(f"self-edge at {a!r}")
        key = (i, j) if i < j else (j, i)
        if key in edge_set:
            raise NotATree(f"duplicate edge {pair!r}")
        edge_set.add(key)
        edges.append(key)

    meets_idx: list[tuple[int, ...]] = []
    for cid, meets in zip(aff_ids, aff_meets_ids):
        row: list[int] = []
        for target in meets:
            i = index.get(target, n)
            if i >= n:
                raise DanglingReference(f"affine {cid!r} crosses unknown exceptional component {target!r}")
            if i in row:
                raise NotATree(f"affine {cid!r} crosses {target!r} twice")
            row.append(i)
        meets_idx.append(tuple(sorted(row)))

    if len(edges) != n - 1:
        raise NotATree(f"tree on {n} components needs {n - 1} edges, got {len(edges)}")
    graph = DualGraph(tuple(exc_ids), tuple(self_int), tuple(edges), tuple(aff_ids), tuple(meets_idx))
    if len(graph.tree_order) != n:
        raise NotATree("exceptional graph is disconnected")
    graph.canonical_numerators  # raises NotNegativeDefinite
    return graph


def _tree_solve(graph: DualGraph, rhs: Sequence[int]) -> tuple[list[int], int]:
    """Solve M x = rhs for the exceptional intersection matrix M of a tree on
    integers by leaf-first elimination (Laufer); returns (X, D), x = X / D.

    Once the subtree of i is eliminated its pivot is -P_i / Q_i, where Q_i is
    the product of the children's P_c and P_i = -E_i^2 Q_i - sum_c Q_c (Q_i /
    P_c); M is negative definite iff every P_i > 0, else NotNegativeDefinite.
    With R_i = b_i Q_i + sum_c R_c (Q_i / P_c) and D = P_root = det(-M), the
    solution is X_i = (X_parent Q_i - R_i D) / P_i, every division exact."""
    n = graph.n_exc
    # det[i] = P_i, prod[i] = Q_i, reduced[i] = R_i; until i is reached they
    # hold the partial sums and product over the children seen so far.
    det, prod, reduced = [0] * n, [1] * n, [0] * n
    for i, parent in reversed(graph.tree_order):
        q = prod[i]
        p = det[i] = -graph.self_int[i] * q - det[i]
        if p <= 0:
            raise NotNegativeDefinite("exceptional intersection matrix is not negative definite")
        r = reduced[i] = rhs[i] * q + reduced[i]
        if parent >= 0:
            det[parent] = det[parent] * p + q * prod[parent]
            reduced[parent] = reduced[parent] * p + r * prod[parent]
            prod[parent] *= p
    d = det[0]
    x = [0] * n
    for i, parent in graph.tree_order:
        x[i] = ((x[parent] * prod[i] if parent >= 0 else 0) - reduced[i] * d) // det[i]
    return x, d


def relative_canonical(graph: DualGraph) -> tuple:
    """Relative canonical divisor, normalized so adjunction reads
    (K + E_i) . E_i = -2 on every exceptional component.

    Coefficients solve M k = b with b_i = -2 - E_i^2 by the integer tree
    elimination, as k = X / det(-M), checked when the graph was validated;
    affine components carry coefficient 0.  K is the one rational vector the
    algorithm reads, so it is a plain tuple over the global index: an int
    where k_i is integral (everywhere on a smooth surface), a Fraction
    elsewhere.
    """
    nums, det = graph.canonical_numerators
    return tuple(Fraction(x, det) if x % det else x // det for x in nums) + (0,) * graph.n_aff


class IdealDivisorSet:
    """An ordered tuple of ideals, each given by its effective antinef
    divisor of multiplicities on a common graph."""

    def __init__(self, graph: DualGraph, names: Sequence[str], divisors: Sequence):
        if len(names) != len(divisors):
            raise DimensionMismatch("one name per ideal divisor required")
        if not divisors:
            raise PreconditionViolated("at least one ideal is required")
        if len(set(names)) != len(names):
            raise DuplicateId("ideal names must be unique")
        excess: list[tuple[int, ...]] = []
        support: set[int] = set()
        for name, div in zip(names, divisors):
            if div.graph is not graph:
                raise GraphMismatch(f"ideal {name!r} lives on a different graph")
            coeffs = div.coeffs
            if min(coeffs) < 0:
                raise PreconditionViolated(f"ideal {name!r}: multiplicities must be nonnegative")
            if not any(coeffs):
                raise PreconditionViolated(f"ideal {name!r}: zero divisor does not define an ideal")
            # rho_j = -F . E_j, one pass over the adjacency rows
            rho = []
            for cid, c, s, row in zip(graph.exc_ids, coeffs, graph.self_int, graph.adjacency):
                r = -s * c
                for j in row:
                    r -= coeffs[j]
                if r < 0:
                    raise PreconditionViolated(f"ideal {name!r}: not antinef, excess {r} at {cid}")
                rho.append(r)
            excess.append(tuple(rho))
            support.update(j for j, c in enumerate(coeffs) if c)
        self.graph = graph
        self.names = tuple(names)
        self.divisors = tuple(divisors)
        self.r = len(self.divisors)
        # rho[i][j]: excess of F_i at the j-th exceptional component.
        self.excess = tuple(excess)
        # Global indices where some F_i is positive: the support of sum F_i,
        # which bounds reduced jumping divisor candidates.
        self.support = frozenset(support)

    def __repr__(self):
        return f"IdealDivisorSet({', '.join(self.names)})"

    def is_m_primary(self) -> bool:
        """True when every ideal divisor is purely exceptional: the support
        holds no affine index (those follow the exceptional ones)."""
        return max(self.support) < self.graph.n_exc

