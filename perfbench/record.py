"""Record the reference outputs of the benchmark's input pool.

    python3 perfbench/record.py

Writes `perfbench/expected.json`: for every pool input, the CLI calls the
benchmark makes on it (argv without `--input`), their exit codes, the
sha256 digests of their stdout and the number of regions or jumping numbers
they report.  `run.py` checks every later run against this table, so it is
recorded once, at the commit whose output is the reference; a change that
must keep output byte-identical does not re-record it.

Call parameters are derived from each input with the library, so that
chain and walk sizes stay bounded:

* `--upto` is the J-th jumping number of the chain (J fixed per workload);
* `--box` is s times the pair of log canonical thresholds, for the largest
  s on a ladder whose walk stays within a region bound.  A walk that fails
  counts as within the bound, so failures are recorded, not avoided;
* point queries sit at the first ray jumping points (and, on chains, at
  midpoints between consecutive ones);
* a corpus input whose calls take more than CORPUS_SWEEP_BOUND unloading
  sweeps in all is left out of the pool (its index is listed under
  `corpus_skipped`), so that no single input swings a pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import generate
import run
import tracing

DIRECTIONS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (3, 4), (4, 3), (2, 5))
POOL = {"chain40": 12, "corpus": 48}
WALK_BOX = "2,6"
WALK_RAY_JUMPS = 20
WALK_POINT_POOL = 240
CHAIN_IDEAL_JUMPS = 6
CHAIN_RAY_JUMPS = 4
CHAIN_POINT_JUMPS = 26
CHAIN_WALK_REGIONS = 8
CORPUS_RAY_JUMPS = 4
CORPUS_POINT_JUMPS = 2
CORPUS_WALK_REGIONS = 12
CORPUS_SWEEP_BOUND = 2500
LADDER = tuple(Fraction(1, 2**k) for k in range(6, 0, -1)) + tuple(
    Fraction(s) for s in ("3/4", "1", "3/2", "2", "3", "4")
)


def _coords(values) -> str:
    return ",".join(str(Fraction(v)) for v in values)


def _jumps(pkg, divisor, canonical, count):
    values, t = [], Fraction(0)
    for _ in range(count):
        t = pkg.next_jumping_number(divisor, canonical, t)
        values.append(t)
    return values


def _ray_divisor(ideals, direction):
    return ideals.divisors[0].scaled(direction[0]) + ideals.divisors[1].scaled(direction[1])


def _walk_box(pkg, engine, limit):
    """Largest ladder multiple of the thresholds whose walk has at most
    `limit` regions (a failing walk counts as within the limit)."""
    lct = [pkg.next_jumping_number(d, engine.canonical, 0) for d in engine.ideals.divisors]
    chosen = LADDER[0]
    for s in LADDER:
        box = tuple(s * c for c in lct)
        try:
            walk = pkg.RegionEngine(engine.ideals).enumerate_constancy_regions(box, max_points=4 * limit)
            too_big = len(walk.records) > limit or len(walk.representatives) >= 4 * limit
        except pkg.errors.MMIError:
            too_big = False
        if too_big:
            break
        chosen = s
    return _coords(c * chosen for c in lct)


def _record(main, path: Path, argv: list[str]) -> tuple[list, float]:
    start = time.perf_counter()
    code, out = run.invoke(main, [argv[0], "--input", str(path)] + argv[1:])
    elapsed = time.perf_counter() - start
    units = 0
    if code == 0 and argv[0] == "jumping-numbers":
        units = len(json.loads(out)["values"])
    elif code == 0 and argv[0] == "enumerate":
        units = json.loads(out)["distinct_ideals"]
    elif code == 0 and argv[0] == "walls":  # the SVG shows the regions of the JSON payload
        _, payload = run.invoke(main, [argv[0], "--input", str(path)] + argv[1:] + ["--format", "json"])
        units = json.loads(payload)["distinct_ideals"]
    dig = run.digest(out) if code == 0 and argv[0] != "verify" else None
    return [argv, code, dig, units], elapsed


def _item(main, path: Path, argvs, index: int) -> dict:
    calls, cost = [], 0.0
    for argv in argvs:
        record, elapsed = _record(main, path, argv)
        calls.append(record)
        cost += elapsed
    return {"index": index, "cost_ms": round(cost * 1000, 1), "calls": calls}


def _point_calls(lam: str) -> list[list[str]]:
    return [[cmd, "--lambda", lam] for cmd in ("mmi", "region", "min-jumping-divisor", "verify")]


def record_walk(pkg, main) -> dict:
    path = run.EXAMPLE
    _, ideals = pkg.load_input(path)
    engine = pkg.RegionEngine(ideals)
    enum_rec, _ = _record(main, path, ["enumerate", "--box", WALK_BOX])
    walls_rec, _ = _record(main, path, ["walls", "--box", WALK_BOX])
    rays = []
    for d in DIRECTIONS:
        upto = _jumps(pkg, _ray_divisor(ideals, d), engine.canonical, WALK_RAY_JUMPS)[-1]
        rays.append(_record(main, path, ["jumping-numbers", "--direction", _coords(d), "--upto", str(upto)])[0])
    walk = engine.enumerate_constancy_regions(tuple(Fraction(b) for b in WALK_BOX.split(",")))
    reps = [p for p in walk.representatives if any(p) and pkg.is_jumping_point(ideals, engine.canonical, p)]
    step = max(1, len(reps) // WALK_POINT_POOL)
    points = []
    for p in reps[::step][:WALK_POINT_POOL]:
        points.append([_record(main, path, argv)[0] for argv in _point_calls(_coords(p))])
    return {"calls": [enum_rec, walls_rec], "rays": rays, "points": points}


def record_chain(pkg, main, length: int, index: int, workdir: Path) -> dict:
    """The 80-component input gets a ray chain; 40-component ones get a
    chain by ideal, a small walk (SVG) and `mmi` at chain points."""
    data = generate.chain(length, generate.item_rng(f"chain{length}", index))
    path = workdir / f"chain{length}-{index}.json"
    path.write_bytes(generate.dumps(data))
    _, ideals = pkg.load_input(path)
    engine = pkg.RegionEngine(ideals)
    d = DIRECTIONS[index % len(DIRECTIONS)]
    if length != 40:
        ray = _jumps(pkg, _ray_divisor(ideals, d), engine.canonical, CHAIN_RAY_JUMPS)
        argvs = [["jumping-numbers", "--direction", _coords(d), "--upto", str(ray[-1])]]
        return _item(main, path, argvs, index)
    ideal_upto = _jumps(pkg, ideals.divisors[0], engine.canonical, CHAIN_IDEAL_JUMPS)[-1]
    argvs = [
        ["jumping-numbers", "--ideal", "a1", "--upto", str(ideal_upto)],
        ["walls", "--box", _walk_box(pkg, engine, CHAIN_WALK_REGIONS)],
    ]
    ray = _jumps(pkg, _ray_divisor(ideals, d), engine.canonical, CHAIN_POINT_JUMPS + 1)
    for j in range(CHAIN_POINT_JUMPS):
        for t in (ray[j], (ray[j] + ray[j + 1]) / 2):
            argvs.append(["mmi", "--lambda", _coords((t * d[0], t * d[1]))])
    return _item(main, path, argvs, index)


def record_corpus(pkg, main, family: str, index: int, workdir: Path) -> dict:
    data = generate.corpus_input(family, generate.item_rng(family, index))
    path = workdir / f"{family}-{index}.json"
    path.write_bytes(generate.dumps(data))
    _, ideals = pkg.load_input(path)
    engine = pkg.RegionEngine(ideals)
    d = DIRECTIONS[index % len(DIRECTIONS)]
    ray = _jumps(pkg, _ray_divisor(ideals, d), engine.canonical, CORPUS_RAY_JUMPS)
    argvs = [["canonical"], ["jumping-numbers", "--direction", _coords(d), "--upto", str(ray[-1])]]
    for t in ray[:CORPUS_POINT_JUMPS]:
        argvs += _point_calls(_coords((t * d[0], t * d[1])))
    walk = "walls" if index % 2 else "enumerate"  # every layer, SVG included, runs in corpus
    argvs.append([walk, "--box", _walk_box(pkg, engine, CORPUS_WALK_REGIONS)])
    return _item(main, path, argvs, index)


def _sweeps(main, path: Path, item: dict) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, *_ in item["calls"]:
            run.invoke(main, [argv[0], "--input", str(path)] + argv[1:])
    finally:
        tracer.uninstall()
    return tracer.counts["divisors.unload_once"]


def record_corpus_pool(pkg, main, family: str, workdir: Path) -> tuple[list, list]:
    items, skipped, index = [], [], 0
    while len(items) < POOL["corpus"]:
        item = record_corpus(pkg, main, family, index, workdir)
        if _sweeps(main, workdir / f"{family}-{index}.json", item) > CORPUS_SWEEP_BOUND:
            skipped.append(index)
        else:
            items.append(item)
        index += 1
    return items, skipped


def main() -> int:
    pkg = run.load_program()
    main_fn = importlib.import_module("mmideals.cli").main
    table: dict = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        table["walk"] = record_walk(pkg, main_fn)
        print("walk recorded", file=sys.stderr)
        table["chains"] = {
            "80": [record_chain(pkg, main_fn, 80, 0, workdir)],
            "40": [record_chain(pkg, main_fn, 40, i, workdir) for i in range(POOL["chain40"])],
        }
        print("chains recorded", file=sys.stderr)
        table["corpus"], table["corpus_skipped"] = {}, {}
        for family in generate.CORPUS_FAMILIES:
            table["corpus"][family], table["corpus_skipped"][family] = record_corpus_pool(
                pkg, main_fn, family, workdir
            )
    run.TABLE.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
