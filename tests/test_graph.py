"""Graph validation, the relative canonical divisor, and classification."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmideals.divisors import Divisor
from mmideals.graph import Classification, DualGraph, IdealDivisorSet, _tree_solve, relative_canonical, validate_graph
from mmideals.io import build_ideals
from mmideals.errors import (
    DanglingReference,
    DuplicateId,
    GraphMismatch,
    NonIntegralDivisor,
    NotATree,
    NotNegativeDefinite,
    PreconditionViolated,
)

from conftest import GOLDEN, exc


def test_example_graph_shape(graph):
    assert graph.exc_ids == ("E1", "E2", "E3", "E4", "E5")
    assert graph.aff_ids == ("A1", "A2")
    assert graph.ids == ("E1", "E2", "E3", "E4", "E5", "A1", "A2")
    assert graph.n_exc == 5 and graph.n_aff == 2 and graph.n_total == 7
    assert graph.self_int == (-2, -4, -2, -2, -1)
    assert graph.edges == ((0, 1), (1, 4), (2, 3), (3, 4))
    # A1 crosses E2, A2 crosses E5
    assert graph.aff_meets == ((1,), (4,))
    assert graph.aff_cross[1] == (5,) and graph.aff_cross[4] == (6,)


def test_adjacency_is_symmetric(graph):
    for j, neighbors in enumerate(graph.adjacency):
        for nb in neighbors:
            assert j in graph.adjacency[nb]


def test_intersection_matrix(graph):
    m = graph.intersection_matrix()
    assert m[0] == (-2, 1, 0, 0, 0)
    assert m[1] == (1, -4, 0, 0, 1)
    assert m[4] == (0, 1, 0, 1, -1)
    for i in range(5):
        for j in range(5):
            assert m[i][j] == m[j][i]


def test_relative_canonical(graph):
    k = relative_canonical(graph)
    assert exc(k) == GOLDEN["canonical"]
    # affine coordinates stay zero
    assert k.coeffs[5] == 0 and k.coeffs[6] == 0
    # adjunction: (K + E_i) . E_i = -2
    for i in range(graph.n_exc):
        assert graph.dot_exceptional(k.coeffs, i) + graph.self_int[i] == -2


# -- leaf-first tree elimination against the dense reference -------------------


def dense_is_negative_definite(matrix) -> bool:
    """Reference: -M is positive definite iff elimination without row
    exchanges keeps every pivot positive."""
    n = len(matrix)
    a = [[Fraction(-matrix[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return True


def dense_solve(rows, rhs) -> tuple[Fraction, ...]:
    """Reference: Gauss-Jordan over Fraction on an invertible matrix."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def test_tree_elimination_matches_dense_reference():
    rng = random.Random(20261018)
    verdicts = {True: 0, False: 0}
    fractional = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        selfs = [-rng.randint(1, 4) for _ in range(n)]
        # a random recursive tree, relabelled so component 0 is any vertex
        label = rng.sample(range(n), n)
        edges = [(label[rng.randrange(i)], label[i]) for i in range(1, n)]
        matrix = [[selfs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            matrix[i][j] = matrix[j][i] = 1
        raw = {
            "exceptional": [{"id": f"E{i}", "self": s} for i, s in enumerate(selfs)],
            "edges": [[f"E{i}", f"E{j}"] for i, j in edges],
        }
        definite = dense_is_negative_definite(matrix)
        verdicts[definite] += 1
        if not definite:
            with pytest.raises(NotNegativeDefinite):
                validate_graph(raw)
            continue
        k = relative_canonical(validate_graph(raw))
        assert k.exceptional_part() == dense_solve(matrix, [-2 - s for s in selfs])
        fractional += not k.is_integral()
    assert min(verdicts.values()) >= 50
    assert fractional >= 10


def _tree_solve_fractions(graph, rhs) -> list[Fraction]:
    """The tree elimination as first written, on Fraction pivots d_i = E_i^2
    - sum_c 1 / d_c (negative definite iff every d_i < 0), then
    back-substitution from the root.  Oracle for the integer `_tree_solve`."""
    pivot = [Fraction(s) for s in graph.self_int]
    reduced = [Fraction(b) for b in rhs]
    for i, parent in reversed(graph.tree_order):
        if pivot[i] >= 0:
            raise NotNegativeDefinite("exceptional intersection matrix is not negative definite")
        if parent >= 0:
            pivot[parent] -= 1 / pivot[i]
            reduced[parent] -= reduced[i] / pivot[i]
    x: list[Fraction] = [Fraction(0)] * graph.n_exc
    for i, parent in graph.tree_order:
        x[i] = (reduced[i] - (x[parent] if parent >= 0 else 0)) / pivot[i]
    return x


def _tree_raw(selfs, edges) -> dict:
    return {
        "exceptional": [{"id": f"E{i}", "self": s} for i, s in enumerate(selfs)],
        "edges": [[f"E{i}", f"E{j}"] for i, j in edges],
    }


@st.composite
def random_trees(draw):
    """A random recursive tree on 1-80 components, relabelled so component 0
    is any vertex, with self-intersections in -7..-1: drawn freely, or
    at or beyond -(degree) so that definite trees are common too."""
    n = draw(st.integers(1, 80))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n)]
    if draw(st.booleans()):
        selfs = draw(st.lists(st.integers(-7, -1), min_size=n, max_size=n))
    else:
        degree = [sum(i in edge for edge in edges) for i in range(n)]
        shifts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        selfs = [-min(7, max(1, d + t)) for d, t in zip(degree, shifts)]
    return selfs, edges


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_trees())
def test_integer_tree_elimination_matches_both_oracles(tree):
    selfs, edges = tree
    n = len(selfs)
    matrix = [[selfs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        matrix[i][j] = matrix[j][i] = 1
    raw = _tree_raw(selfs, edges)
    rhs = [-2 - s for s in selfs]
    definite = dense_is_negative_definite(matrix)
    if not definite:
        with pytest.raises(NotNegativeDefinite):
            validate_graph(raw)
        return
    graph = validate_graph(raw)
    k = relative_canonical(graph)
    assert k.exceptional_part() == dense_solve(matrix, rhs) == tuple(_tree_solve_fractions(graph, rhs))
    assert all(type(c) is int or c.denominator > 1 for c in k.coeffs)
    nums, det = _tree_solve(graph, rhs)
    assert all(type(x) is int for x in nums + [det])
    assert [Fraction(x, det) for x in nums] == list(k.exceptional_part())


def test_chain_of_eighty_minus_two_curves():
    chain = [(i, i + 1) for i in range(79)]
    assert relative_canonical(validate_graph(_tree_raw([-2] * 80, chain))).coeffs == (0,) * 80
    # with -3 ends, b = (1, 0, ..., 0, 1): k is linear along the chain,
    # symmetric, so constant, and -3 k + k = 1 at the ends
    selfs = [-3] + [-2] * 78 + [-3]
    graph = validate_graph(_tree_raw(selfs, chain))
    k = relative_canonical(graph)
    assert k.coeffs == (Fraction(-1, 2),) * 80
    assert list(k.coeffs) == _tree_solve_fractions(graph, [-2 - s for s in selfs])


def test_tree_not_negative_definite_deep_inside():
    # A -1 curve at position 23 of a -2 chain: the pivots stay negative up to
    # it, and the next one turns positive.
    selfs = [-2] * 40
    selfs[23] = -1
    chain = [(i, i + 1) for i in range(39)]
    with pytest.raises(NotNegativeDefinite):
        validate_graph(_tree_raw(selfs, chain))
    graph = DualGraph(tuple(f"E{i}" for i in range(40)), tuple(selfs), tuple(chain), (), ())
    with pytest.raises(NotNegativeDefinite):
        _tree_solve_fractions(graph, [0] * 40)
    matrix = [[selfs[i] if i == j else int(abs(i - j) == 1) for j in range(40)] for i in range(40)]
    assert not dense_is_negative_definite(matrix)


def test_excess_table(graph, ideals):
    rho = ideals.excess
    assert rho[0] == tuple(Fraction(v) for v in GOLDEN["excess_a1"])
    assert rho[1] == tuple(Fraction(v) for v in GOLDEN["excess_a2"])


def test_classification(graph, ideals):
    cls = Classification(graph, ideals)
    # walls live on rupture and dicritical components; the example has no rupture
    wall_ids = tuple(graph.exc_ids[j] for j in cls.wall_relevant)
    assert wall_ids == tuple(sorted(GOLDEN["rupture_ids"] + GOLDEN["dicritical_ids"]))


def test_rupture_needs_three_exceptional_neighbors():
    # C has zero excess and each leaf positive excess, so C is wall-relevant
    # only as a rupture: with three exceptional neighbours, not with two
    for self_c, names in ((-3, ["L1", "L2", "L3"]), (-2, ["L1", "L2"])):
        raw = {
            "exceptional": [{"id": "C", "self": self_c}] + [{"id": name, "self": -2} for name in names],
            "edges": [["C", name] for name in names],
            "ideals": [{"mult": dict.fromkeys(["C", *names], 1)}],
        }
        graph = validate_graph(raw)
        ideals = build_ideals(graph, raw["ideals"])
        assert ideals.excess[0] == (0,) + (1,) * len(names)
        wall_ids = tuple(graph.exc_ids[j] for j in Classification(graph, ideals).wall_relevant)
        assert wall_ids == (("C",) if len(names) == 3 else ()) + tuple(names)


def test_ideal_set_basics(graph, ideals, engine):
    assert ideals.r == 2
    assert ideals.names == ("a1", "a2")
    assert ideals.is_m_primary()
    assert exc(ideals.total()) == (4, 8, 9, 18, 27)
    # weighted value at E5: lam1 * 21 + lam2 * 6 = 19/2, less k_5 = 9
    context = engine.at((Fraction(1, 6), Fraction(1)))
    assert Fraction(context.values[4], context.den) == Fraction(19, 2) - 9


def test_coefficients_mapping(graph):
    coeffs = graph.coefficients({"E2": 1, "A1": "3/2"})
    assert coeffs == [0, 1, 0, 0, 0, Fraction(3, 2), 0]
    with pytest.raises(DanglingReference):
        graph.coefficients({"E9": 1})


def test_coefficients_reject_floats(graph):
    with pytest.raises(PreconditionViolated):
        graph.coefficients({"E2": 0.5})


def _example_raw_copy(example_raw):
    return copy.deepcopy(example_raw)


def test_duplicate_component_id(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["affine"][0]["id"] = "E1"
    with pytest.raises(DuplicateId):
        validate_graph(raw)


def test_edge_to_affine_component(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["edges"][0] = ["E1", "A1"]
    with pytest.raises(DanglingReference, match="not an exceptional"):
        validate_graph(raw)


def test_edge_to_unknown_component(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["edges"][0] = ["E1", "E9"]
    with pytest.raises(DanglingReference, match="unknown"):
        validate_graph(raw)


def test_cycle_is_not_a_tree(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["edges"].append(["E1", "E5"])
    with pytest.raises(NotATree):
        validate_graph(raw)


def test_disconnected_is_not_a_tree():
    # three edges on four components, but E4 is isolated (cycle elsewhere)
    raw = {
        "exceptional": [
            {"id": "E1", "self": -2},
            {"id": "E2", "self": -2},
            {"id": "E3", "self": -2},
            {"id": "E4", "self": -2},
        ],
        "edges": [["E1", "E2"], ["E2", "E3"], ["E1", "E3"]],
        "ideals": [{"mult": {"E1": 1}}],
    }
    with pytest.raises(NotATree):
        validate_graph(raw)


def test_duplicate_edge_is_not_a_tree(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["edges"].append(["E2", "E1"])
    with pytest.raises(NotATree, match="duplicate"):
        validate_graph(raw)


def test_self_edge(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["edges"][0] = ["E1", "E1"]
    with pytest.raises(NotATree, match="self-edge"):
        validate_graph(raw)


def test_not_negative_definite():
    raw = {
        "exceptional": [{"id": "E1", "self": -1}, {"id": "E2", "self": -1}],
        "edges": [["E1", "E2"]],
        "ideals": [{"mult": {"E1": 1, "E2": 1}}],
    }
    with pytest.raises(NotNegativeDefinite):
        validate_graph(raw)


def test_affine_needs_a_crossing(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["affine"][0]["meets"] = []
    with pytest.raises(PreconditionViolated, match="cross at least one"):
        validate_graph(raw)


def test_affine_crossing_unknown_component(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["affine"][0]["meets"] = ["E9"]
    with pytest.raises(DanglingReference):
        validate_graph(raw)


def test_self_intersection_must_be_integer(example_raw):
    raw = _example_raw_copy(example_raw)
    raw["exceptional"][0]["self"] = -2.0
    with pytest.raises(PreconditionViolated, match="integer"):
        validate_graph(raw)


def test_ideal_names_must_be_unique(graph):
    f = Divisor(graph, (1, 2, 2, 4, 6, 0, 0))
    with pytest.raises(DuplicateId):
        IdealDivisorSet(graph, ("a", "a"), (f, f))


def test_ideal_divisor_must_be_integral(graph):
    with pytest.raises(NonIntegralDivisor):
        IdealDivisorSet(graph, ("a",), (Divisor(graph, (Fraction(1, 2), 0, 0, 0, 0, 0, 0)),))


def test_ideal_divisor_must_be_antinef(graph):
    # excess at E2 is -1, which Lipman correspondence forbids
    with pytest.raises(PreconditionViolated, match="E2"):
        IdealDivisorSet(graph, ("a",), (Divisor(graph, (1, 0, 0, 0, 0, 0, 0)),))


def test_ideal_divisor_must_be_nonzero(graph):
    with pytest.raises(PreconditionViolated):
        IdealDivisorSet(graph, ("a",), (Divisor(graph, (0,) * 7),))


def test_ideal_divisor_must_be_effective(graph):
    with pytest.raises(PreconditionViolated):
        IdealDivisorSet(graph, ("a",), (Divisor(graph, (-1, 0, 0, 0, 0, 0, 0)),))


def test_ideal_divisor_on_foreign_graph(graph):
    other = validate_graph(
        {"exceptional": [{"id": "E1", "self": -2}], "ideals": [{"mult": {"E1": 1}}]}
    )
    foreign = Divisor(other, (1,))
    with pytest.raises(GraphMismatch):
        IdealDivisorSet(graph, ("a",), (foreign,))


def test_build_ideals_default_names(graph):
    ideals = build_ideals(graph, [{"mult": {"E1": 1, "E2": 2, "E3": 2, "E4": 4, "E5": 6}}])
    assert ideals.names == ("a1",)


def test_build_ideals_requires_mult_object(graph):
    with pytest.raises(PreconditionViolated, match="mult"):
        build_ideals(graph, [{"name": "a", "mult": 3}])


def test_empty_graph_rejected():
    with pytest.raises(PreconditionViolated):
        validate_graph({"exceptional": [], "ideals": []})
