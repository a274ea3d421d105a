"""Hypothesis families shared by the test modules: random trees, and ideal
tuples on them made into engines."""

from __future__ import annotations

from hypothesis import strategies as st

from mmideals import RegionEngine
from mmideals.divisors import Divisor, antinef_closure
from mmideals.errors import NotNegativeDefinite
from mmideals.graph import DualGraph, IdealDivisorSet, validate_graph


def _tree_raw(selfs, edges) -> dict:
    return {
        "exceptional": [{"id": f"E{i}", "self": s} for i, s in enumerate(selfs)],
        "edges": [[f"E{i}", f"E{j}"] for i, j in edges],
    }


@st.composite
def random_trees(draw, max_size=80):
    """A random recursive tree on 1 to `max_size` components, relabelled so
    component 0 is any vertex, with self-intersections in -7..-1: drawn
    freely, or at or beyond -(degree) so that definite trees are common too."""
    n = draw(st.integers(1, max_size))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n)]
    if draw(st.booleans()):
        selfs = draw(st.lists(st.integers(-7, -1), min_size=n, max_size=n))
    else:
        degree = [sum(i in edge for edge in edges) for i in range(n)]
        shifts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        selfs = [-min(7, max(1, d + t)) for d, t in zip(degree, shifts)]
    return selfs, edges


def _definite_graph(selfs, edges, affine=()) -> DualGraph:
    """The graph of a tree with `affine` arrows, made definite where it is
    not by lowering each E_i^2 to at most -(degree + 1)."""
    try:
        return validate_graph({**_tree_raw(selfs, edges), "affine": list(affine)})
    except NotNegativeDefinite:
        degree = [sum(i in edge for edge in edges) for i in range(len(selfs))]
        selfs = [min(s, -d - 1) for s, d in zip(selfs, degree)]
        return validate_graph({**_tree_raw(selfs, edges), "affine": list(affine)})


def _tree_engine(data) -> RegionEngine:
    """One or two ideals on a random tree (`random_trees`), made definite
    where it is not (`_definite_graph`), with up to two affine arrows: each
    ideal the antinef closure of a random nonzero start, so some carry
    affine multiplicity and are not m-primary."""
    selfs, edges = data.draw(random_trees(), label="tree")
    n = len(selfs)
    arrows = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="arrows")
    graph = _definite_graph(selfs, edges, [{"id": f"A{a}", "meets": [f"E{i}"]} for a, i in enumerate(arrows)])
    start = st.lists(st.integers(0, 2), min_size=graph.n_total, max_size=graph.n_total).filter(any)
    divisors = [antinef_closure(Divisor(graph, data.draw(start))) for _ in range(data.draw(st.integers(1, 2)))]
    return RegionEngine(IdealDivisorSet(graph, [f"a{i}" for i in range(len(divisors))], divisors))
