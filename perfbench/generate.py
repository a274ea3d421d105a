"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns a plain dict in the
input format of `mmideals` (see the package README).  The arithmetic here is
the benchmark's own, so the program under test only ever sees the files.

Families:

* `chain`: a chain of free blow-ups E1 - E2 - ... - En with
  self-intersections (-2, ..., -2, -1).  Each ideal is the pullback of a
  complete ideal whose base points are the first k points of the chain with
  nonincreasing weights, so its multiplicity at E_i is the sum of the first
  min(i, k) weights.
* `blowup`: the dual graph of a random sequence of point blow-ups of a
  smooth surface (free and satellite points).  Such a graph is negative
  definite and unimodular, so F = M^-1 (-rho) is integral and so is K.
* `affine`: a `blowup` graph plus affine arrows carrying multiplicity, which
  makes the ideals non-m-primary; F = M^-1 (-rho - A) is still integral.
* `tree`: a random tree with self-intersections -2..-4, kept when negative
  definite; F solves M F = -rho exactly and each ideal is scaled by the lcm
  of its denominators, which leaves K fractional in general.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

CORPUS_FAMILIES = ("blowup", "affine", "tree")


def _solve(matrix, rhs):
    """Exact Gauss-Jordan solve of matrix . x = rhs over Fraction."""
    n = len(matrix)
    aug = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _negative_definite(matrix) -> bool:
    """Exact pivot test: every leading pivot of -M stays positive."""
    n = len(matrix)
    a = [[Fraction(-v) for v in row] for row in matrix]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return True


def _matrix(selfs, edges):
    n = len(selfs)
    m = [[0] * n for _ in range(n)]
    for i, s in enumerate(selfs):
        m[i][i] = s
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


def _graph_dict(selfs, edges, affine_meets=()):
    return {
        "exceptional": [{"id": f"E{i + 1}", "self": s} for i, s in enumerate(selfs)],
        "edges": [[f"E{i + 1}", f"E{j + 1}"] for i, j in edges],
        "affine": [
            {"id": f"A{a + 1}", "meets": [f"E{i + 1}"]} for a, i in enumerate(affine_meets)
        ],
    }


def chain(n: int, rng: random.Random) -> dict:
    """Free blow-up chain of length n with two pullback ideals."""
    selfs = [-2] * (n - 1) + [-1]
    edges = [(i, i + 1) for i in range(n - 1)]
    data = _graph_dict(selfs, edges)
    data["ideals"] = []
    for k in range(2):
        points = rng.randint(1, n)
        weights = sorted((rng.randint(1, 3) for _ in range(points)), reverse=True)
        mult, total = {}, 0
        for i in range(n):
            total += weights[i] if i < points else 0
            mult[f"E{i + 1}"] = total
        data["ideals"].append({"name": f"a{k + 1}", "mult": mult})
    return data


def _blowup_sequence(n: int, rng: random.Random):
    selfs = [-1]
    edges: list[tuple[int, int]] = []
    while len(selfs) < n:
        new = len(selfs)
        if edges and rng.random() < 0.35:
            i, j = edges.pop(rng.randrange(len(edges)))  # satellite point E_i . E_j
            selfs[i] -= 1
            selfs[j] -= 1
            edges += [(i, new), (j, new)]
        else:
            i = rng.randrange(new)  # free point on E_i
            selfs[i] -= 1
            edges.append((i, new))
        selfs.append(-1)
    return selfs, sorted((min(e), max(e)) for e in edges)


def _random_excess(n: int, rng: random.Random) -> list[int]:
    rho = [0] * n
    for i in rng.sample(range(n), rng.randint(1, min(2, n))):
        rho[i] = rng.randint(1, 2)
    return rho


def _ideal(ids, values, name):
    return {"name": name, "mult": {cid: int(v) for cid, v in zip(ids, values)}}


def corpus_input(family: str, rng: random.Random) -> dict:
    """One input of a corpus family, with 4 to 12 exceptional components
    and two ideals."""
    n = rng.randint(4, 12)
    if family in ("blowup", "affine"):
        selfs, edges = _blowup_sequence(n, rng)
    elif family == "tree":
        while True:
            selfs = [rng.randint(-4, -2) for _ in range(n)]
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            if _negative_definite(_matrix(selfs, edges)):
                break
    else:
        raise ValueError(f"unknown corpus family {family!r}")
    meets = [rng.randrange(n) for _ in range(rng.randint(1, 2))] if family == "affine" else []
    data = _graph_dict(selfs, edges, meets)
    matrix = _matrix(selfs, edges)
    ids = [f"E{i + 1}" for i in range(n)] + [f"A{a + 1}" for a in range(len(meets))]
    data["ideals"] = []
    for k in range(2):
        rho = _random_excess(n, rng)
        aff = [rng.randint(0, 2) for _ in meets]
        if meets and k == 0 and not any(aff):
            aff[0] = 1
        if meets and rng.random() < 0.5:
            rho = [0] * n  # a purely affine ideal: the strict transforms carry it
            if not any(aff):
                aff[0] = 1
        load = list(rho)
        for a, i in enumerate(meets):
            load[i] += aff[a]
        values = _solve(matrix, [-v for v in load])
        scale = math.lcm(*(v.denominator for v in values))
        values = [v * scale for v in values] + [a * scale for a in aff]
        data["ideals"].append(_ideal(ids, values, f"a{k + 1}"))
    return data


def item_rng(family: str, index: int) -> random.Random:
    """The generator state of pool item `index` of a family."""
    return random.Random(f"{family}:{index}")


def dumps(data: dict) -> bytes:
    """Deterministic file bytes for a generated input."""
    return (json.dumps(data, indent=1) + "\n").encode()
