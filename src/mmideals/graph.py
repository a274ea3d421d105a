"""Dual graphs of resolutions and the divisor combinatorics living on them.

A :class:`DualGraph` is the weighted dual graph of a resolution of a complex
surface singularity with rational singularities: a tree of exceptional
rational curves, each weighted by its (negative) self-intersection, plus a
list of affine arrows recording where the strict transforms of curve germs
cross the exceptional locus.  The exceptional intersection matrix M must be
negative definite; one integer elimination over the tree tests that and
gives the relative canonical divisor K = X / det(-M) with X integral.

Components are indexed globally: exceptional components first, in input
order, then affine components.  Divisors are coefficient vectors over that
global index; affine arrows never receive corrections but they do contribute
to intersection products through the components they cross.
"""

from __future__ import annotations

import functools
import operator
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
    "Classification",
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
        self.index: dict[str, int] = {cid: i for i, cid in enumerate(self.ids)}

        exc_adj: list[list[int]] = [[] for _ in range(self.n_exc)]
        for i, j in edges:
            exc_adj[i].append(j)
            exc_adj[j].append(i)
        self.exc_adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in exc_adj)

        aff_cross: list[list[int]] = [[] for _ in range(self.n_exc)]
        for a, meets in enumerate(aff_meets):
            for i in meets:
                aff_cross[i].append(self.n_exc + a)
        self.aff_cross: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(c)) for c in aff_cross)

        # Global adjacency: every pair of components with intersection 1.
        adjacency: list[tuple[int, ...]] = []
        for i in range(self.n_exc):
            adjacency.append(tuple(sorted(self.exc_adj[i] + self.aff_cross[i])))
        for meets in aff_meets:
            adjacency.append(tuple(sorted(meets)))
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(adjacency)

        # Breadth-first order of the exceptional components reached from
        # component 0, each with its parent (-1 at the root).
        parent = {0: -1}
        order = [0]
        for i in order:
            for j in self.exc_adj[i]:
                if j not in parent:
                    parent[j] = i
                    order.append(j)
        self.tree_order: tuple[tuple[int, int], ...] = tuple((i, parent[i]) for i in order)

    @functools.cached_property
    def canonical_numerators(self) -> tuple[list[int], int]:
        """(X, D) with M X = D * b, b_i = -2 - E_i^2: the relative canonical
        divisor as X / D.  Solved once per graph; raises NotNegativeDefinite."""
        return _tree_solve(self, [-2 - s for s in self.self_int])

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

    def dot_exceptional(self, coeffs: Sequence[Fraction], i: int) -> Fraction:
        """Intersection product D . E_i for a divisor with the given global
        coefficient vector and the i-th exceptional component."""
        total = self.self_int[i] * coeffs[i]
        for j in self.exc_adj[i]:
            total += coeffs[j]
        for a in self.aff_cross[i]:
            total += coeffs[a]
        return total

    def excess_vector(self, coeffs: Sequence[Fraction]) -> list[Fraction]:
        """Excesses rho_i = -D . E_i at every exceptional component."""
        return [-self.dot_exceptional(coeffs, i) for i in range(self.n_exc)]

    def intersection_matrix(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for i in range(self.n_exc):
            row = [0] * self.n_exc
            row[i] = self.self_int[i]
            for j in self.exc_adj[i]:
                row[j] = 1
            rows.append(tuple(row))
        return tuple(rows)

    def coefficients(self, mapping: Mapping[str, object], what: str = "divisor") -> list:
        """Turn an id->value mapping into a global coefficient vector.

        Missing ids default to 0; unknown ids raise DanglingReference.
        """
        coeffs = [0] * self.n_total
        for cid, value in mapping.items():
            if cid not in self.index:
                raise DanglingReference(f"{what}: unknown component id {cid!r}")
            coeffs[self.index[cid]] = value if type(value) is int else _as_fraction(value, f"{what}[{cid}]")
        return coeffs


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
    definiteness of the intersection matrix.
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
    aff_meets_ids: list[list[str]] = []
    for entry in _list_of(raw.get("affine", []), dict, "'affine'"):
        cid = entry.get("id")
        if not isinstance(cid, str) or not cid:
            raise PreconditionViolated(f"affine component without a usable id: {entry!r}")
        meets = entry.get("meets", [])
        if not isinstance(meets, (list, tuple)) or not meets or not all(isinstance(m, str) for m in meets):
            raise PreconditionViolated(f"{cid}: affine component must cross at least one exceptional component id")
        aff_ids.append(cid)
        aff_meets_ids.append(list(meets))

    all_ids = exc_ids + aff_ids
    seen: set[str] = set()
    for cid in all_ids:
        if cid in seen:
            raise DuplicateId(f"component id {cid!r} appears twice")
        seen.add(cid)
    exc_index = {cid: i for i, cid in enumerate(exc_ids)}

    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()
    for pair in _list_of(raw.get("edges", []), (list, tuple), "'edges'"):
        if len(pair) != 2 or not all(isinstance(cid, str) for cid in pair):
            raise PreconditionViolated(f"edge must join exactly two component ids: {pair!r}")
        a, b = pair
        for cid in (a, b):
            if cid not in exc_index:
                if cid in seen:
                    raise DanglingReference(f"edge {pair!r}: {cid!r} is not an exceptional component")
                raise DanglingReference(f"edge {pair!r}: unknown component id {cid!r}")
        i, j = exc_index[a], exc_index[b]
        if i == j:
            raise NotATree(f"self-edge at {a!r}")
        key = (min(i, j), max(i, j))
        if key in edge_set:
            raise NotATree(f"duplicate edge {pair!r}")
        edge_set.add(key)
        edges.append(key)

    meets_idx: list[tuple[int, ...]] = []
    for cid, meets in zip(aff_ids, aff_meets_ids):
        row = []
        for target in meets:
            if target not in exc_index:
                raise DanglingReference(f"affine {cid!r} crosses unknown exceptional component {target!r}")
            row.append(exc_index[target])
        meets_idx.append(tuple(sorted(row)))

    n = len(exc_ids)
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


def relative_canonical(graph: DualGraph):
    """Relative canonical divisor, normalized so adjunction reads
    (K + E_i) . E_i = -2 on every exceptional component.

    Coefficients solve M k = b with b_i = -2 - E_i^2 by the integer tree
    elimination, as k = X / det(-M); affine components carry coefficient 0.
    Like every divisor, K holds ints where it is integral (always on a
    smooth surface) and Fractions elsewhere.
    """
    from .divisors import Divisor  # local import to avoid a cycle

    nums, det = graph.canonical_numerators
    nums = nums + [0] * graph.n_aff  # a copy: the cached list stays as solved
    for i in range(graph.n_exc):
        if graph.dot_exceptional(nums, i) != det * (-2 - graph.self_int[i]):
            raise InternalInvariant("adjunction check failed for the relative canonical divisor")
    return Divisor(graph, [x // det if x % det == 0 else Fraction(x, det) for x in nums])


class IdealDivisorSet:
    """An ordered tuple of ideals, each given by its effective antinef
    divisor of multiplicities on a common graph."""

    def __init__(self, graph: DualGraph, names: Sequence[str], divisors: Sequence):
        from .divisors import Divisor

        if len(names) != len(divisors):
            raise DimensionMismatch("one name per ideal divisor required")
        if not divisors:
            raise PreconditionViolated("at least one ideal is required")
        if len(set(names)) != len(names):
            raise DuplicateId("ideal names must be unique")
        checked: list[Divisor] = []
        excess: list[tuple[int, ...]] = []
        for name, div in zip(names, divisors):
            if div.graph is not graph:
                raise GraphMismatch(f"ideal {name!r} lives on a different graph")
            if not div.is_integral():
                raise NonIntegralDivisor(f"ideal {name!r}: multiplicities must be integers")
            if any(c < 0 for c in div.coeffs):
                raise PreconditionViolated(f"ideal {name!r}: multiplicities must be nonnegative")
            if all(c == 0 for c in div.coeffs):
                raise PreconditionViolated(f"ideal {name!r}: zero divisor does not define an ideal")
            rho = tuple(graph.excess_vector(div.coeffs))
            bad = next((i for i, r in enumerate(rho) if r < 0), None)
            if bad is not None:
                raise PreconditionViolated(
                    f"ideal {name!r}: not antinef, excess {rho[bad]} at {graph.exc_ids[bad]}"
                )
            checked.append(div)
            excess.append(rho)
        self.graph = graph
        self.names = tuple(names)
        self.divisors = tuple(checked)
        self.r = len(checked)
        # rho[i][j]: excess of F_i at the j-th exceptional component.
        self.excess = tuple(excess)
        self._total = functools.reduce(operator.add, self.divisors)

    def __repr__(self):
        return f"IdealDivisorSet({', '.join(self.names)})"

    def total(self):
        """Sum of the ideal divisors; its support bounds reduced jumping
        divisor candidates."""
        return self._total

    def is_m_primary(self) -> bool:
        """True when every ideal divisor is purely exceptional."""
        g = self.graph
        return all(all(d.coeffs[g.n_exc + a] == 0 for a in range(g.n_aff)) for d in self.divisors)


class Classification:
    """Tag exceptional components: `wall_relevant` holds those that are
    rupture (three or more exceptional neighbors) or dicritical (positive
    excess for some ideal), which is where region walls can live.  Affine
    arrows never make a component rupture.  `crossed` holds the components
    met by an affine component that carries multiplicity."""

    def __init__(self, graph: DualGraph, ideals: IdealDivisorSet):
        self.wall_relevant = tuple(
            j for j in range(graph.n_exc) if len(graph.exc_adj[j]) >= 3 or any(rho[j] > 0 for rho in ideals.excess)
        )
        total = ideals.total().coeffs
        self.crossed = tuple(j for j in range(graph.n_exc) if any(total[a] > 0 for a in graph.aff_cross[j]))
