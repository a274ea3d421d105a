"""End-to-end benchmark of the mmideals command line.

    python3 perfbench/run.py --workload walk|chains|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
`src/` and driven in-process through `mmideals.cli.main(argv)`, with stdout
and stderr captured.  Every call uses the argv a user would type against a
generated JSON input file.  The load is a closed loop: one process, one
client, calls back to back, no threads.

Workloads (why each one exists):

* `walk`: the running example `tests/data/example_two_ideals.json`,
  `enumerate` (JSON) and `walls` (SVG) at box 2,6, twelve ray chains, and
  point queries at 30 walk representatives.  The only workload whose
  `regions_per_s` is set by the region walk (facets, predecessors, queue
  priority, which take nine tenths of a walk call at this box), JSON
  serialisation and SVG.  The box is kept small so that each walk call
  takes about 0.15 s and gets a fast sample on a noisy host.  Unloading
  takes about three sweeps per closure here, so a faster unloading kernel
  should leave `regions_per_s` unchanged.
* `chains`: free blow-up chains of 40 and 80 components with pullback
  ideals; `jumping-numbers` by direction on the 80-component chain, by
  ideal on a 40-component one with one small walk (SVG), and `mmi` at 8
  chain points of a seeded 40-component input.  Unloading and per-call
  set-up (the exact canonical divisor and definiteness test) dominate; the
  walk barely runs.  Every call takes 0.2 s to 1.5 s, so a run holds few
  passes and its timings follow the host's drift: on a 2-vCPU shared host
  their run-to-run spread exceeded the bounds of BENCHMARK.json, which
  therefore leaves `chains` out.  Run it by hand; its per-layer counts
  (`--trace 1`) repeat exactly.
* `corpus`: seeded random resolutions with 4-12 components in three
  families (blow-up graphs, the same with affine multiplicities, random
  negative definite trees): per input `canonical`, a ray chain, `mmi`,
  `region`, `min-jumping-divisor` and `verify` at the first two ray
  jumping points, and a small walk (JSON or SVG).  Hundreds of short calls,
  where per-call set-up, the CLI, the verifiers and the non-m-primary paths
  dominate.

A seed selects the workload's inputs from a pool of generated inputs whose
outputs were recorded in `expected.json` by `record.py`; see there.  A pass
runs the selected call list once, in a seeded interleaved order.  Passes
repeat until `--seconds` would be exceeded (at least one runs), so every
call is timed once per pass.  Each call's time is its fastest over the
passes.  On a shared host the speed switches between a fast and a slow
mode, about 2x apart, for seconds to minutes at a time: a median over the
passes flips with the share of time spent slow, while the fastest sample
stays near the program's own cost.  A fixed pure-Python Fraction loop is
timed before every pass and reported beside the metrics, never divided
into them; it shows when the host was slow.

End-to-end metrics (`--trace 0`):

* `run_s`: one pass over the call list, each call at its fastest;
* `setup_s`: importing `mmideals`, then `load_input` and `RegionEngine(...)`
  once per distinct input; median of SETUP_SAMPLES samples, one before each
  of the first passes;
* `regions_per_s`, `jumps_per_s`: regions reported by `enumerate`/`walls`
  and jumping numbers reported by `jumping-numbers`, per second spent in
  those calls;
* `points_per_s`, `point_p90_ms`: point queries (`mmi`, `region`,
  `min-jumping-divisor`, `verify`) per second spent in them, and the 90th
  percentile of their latency (walk and corpus issue over 100 per pass,
  chains 8, whose calls each take a fifth of a second);
* `peak_rss_mb`: peak resident memory of the benchmark process;
* `ok_ratio`: 1 - failed / attempted calls, so that it is never 0.

`attempted` and `failed` count the distinct calls of the plan, so that they
depend on the seed alone, not on how many passes fitted in the run.  Every
pass repeats them; a call whose outcome differs between passes makes the
run incorrect.

Outputs are checked: every call must exit 0, every stdout must match its
recorded sha256 digest, and `verify` is judged by its exit code.  A call
that exits non-zero counts as failed; one that succeeded when the table was
recorded and fails now, or whose digest differs, also makes the run
incorrect.  The hand-derived anchors on the running example are checked on
every run: canonical divisor (1, 2, 3, 6, 9), and 25 distinct ideals with
42 representatives at box 1,3.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json.  With `--trace 1`, untraced and traced passes
alternate and the metrics are the per-layer ones (see tracing.py).  A
readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import generate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXAMPLE = ROOT / "tests" / "data" / "example_two_ideals.json"
TABLE = HERE / "expected.json"

WORKLOADS = ("walk", "chains", "corpus")
SETUP_SAMPLES = 9
WALK_POINTS = 30
CHAIN_POINTS = 8
CORPUS_STRATUM = 6

GROUP = {
    "enumerate": "regions",
    "walls": "regions",
    "jumping-numbers": "jumps",
    "mmi": "points",
    "region": "points",
    "min-jumping-divisor": "points",
    "verify": "points",
    "canonical": "other",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or data)."""


def load_program():
    """Put the checkout's `src/` first on the import path and check that
    `mmideals` resolves there."""
    src = ROOT / "src"
    if not (src / "mmideals" / "__init__.py").is_file():
        raise BenchError(f"no mmideals sources under {src}")
    if not EXAMPLE.is_file():
        raise BenchError(f"missing running example {EXAMPLE}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("mmideals")
    if Path(pkg.__file__).resolve().parent != (src / "mmideals").resolve():
        raise BenchError(f"mmideals imported from {pkg.__file__}, not from {src}")
    return pkg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invoke(main, argv):
    """One CLI call with captured output; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# -- plans: inputs and call lists -------------------------------------------


class Call:
    """One recorded CLI call: argv without `--input`, the exit code and
    stdout digest seen when the table was recorded, and the regions or
    jumping numbers its output reports."""

    __slots__ = ("file", "argv", "code", "digest", "units")

    def __init__(self, file, argv, code, digest, units):
        self.file = file
        self.argv = argv
        self.code = code
        self.digest = digest
        self.units = units

    @property
    def command(self) -> str:
        return self.argv[0]

    def full_argv(self, workdir: Path) -> list[str]:
        return [self.argv[0], "--input", str(workdir / self.file)] + self.argv[1:]


class Plan:
    """Generated input files (name -> bytes) and one pass's call list."""

    def __init__(self, workload: str, seed: int, files: dict[str, bytes], calls: list[Call]):
        self.workload = workload
        self.seed = seed
        self.files = files
        self.calls = calls


def _calls(file: str, records) -> list[Call]:
    return [Call(file, argv, code, dig, units) for argv, code, dig, units in records]


def _walk_plan(rng, table):
    entry = table["walk"]
    records = entry["calls"] + entry["rays"]
    for point in rng.sample(entry["points"], WALK_POINTS):
        records += point
    return {"example.json": EXAMPLE.read_bytes()}, _calls("example.json", records)


def _stratified(rng, items, size: int) -> list[dict]:
    """One item drawn from each stratum of `size` items of similar recorded
    cost, so that the work of a pass stays nearly the same from seed to
    seed, where a plain sample would let a few costly inputs swing it."""
    ranked = sorted(items, key=lambda it: (it["cost_ms"], it["index"]))
    return [rng.choice(ranked[i : i + size]) for i in range(0, len(ranked), size)]


def _chain_file(files, length: str, item) -> str:
    name = f"chain{length}-{item['index']}.json"
    data = generate.chain(int(length), generate.item_rng(f"chain{length}", item["index"]))
    files[name] = generate.dumps(data)
    return name


def _chains_plan(rng, table):
    # The chain and walk calls are the same for every seed; the seed picks
    # the 40-component input and the chain points that `mmi` is asked
    # about.  All 40-component chains share one graph, so their `mmi` calls
    # cost about the same.
    long_item, fixed = table["chains"]["80"][0], table["chains"]["40"][0]
    files: dict[str, bytes] = {}
    calls = _calls(_chain_file(files, "80", long_item), long_item["calls"])
    calls += _calls(_chain_file(files, "40", fixed), [r for r in fixed["calls"] if r[0][0] != "mmi"])
    item = rng.choice(table["chains"]["40"])
    points = [r for r in item["calls"] if r[0][0] == "mmi"]
    calls += _calls(_chain_file(files, "40", item), rng.sample(points, CHAIN_POINTS))
    return files, calls


def _corpus_plan(rng, table):
    files, calls = {}, []
    for family in generate.CORPUS_FAMILIES:
        for item in _stratified(rng, table["corpus"][family], CORPUS_STRATUM):
            name = f"{family}-{item['index']}.json"
            data = generate.corpus_input(family, generate.item_rng(family, item["index"]))
            files[name] = generate.dumps(data)
            calls += _calls(name, item["calls"])
    return files, calls


def build_plan(workload: str, seed: int, table: dict) -> Plan:
    rng = random.Random(seed)
    builder = {"walk": _walk_plan, "chains": _chains_plan, "corpus": _corpus_plan}[workload]
    files, calls = builder(rng, table)
    rng.shuffle(calls)  # interleave call kinds over the pass
    return Plan(workload, seed, files, calls)


def load_table() -> dict:
    if not TABLE.is_file():
        raise BenchError(f"missing recorded outputs {TABLE}")
    return json.loads(TABLE.read_text())


# -- measurement --------------------------------------------------------------


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python Fraction loop: the host's speed
    during a pass, reported beside the metrics and never divided into them."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2001):
        acc += Fraction(i % 7 + 1, 3 * i)
        if acc.denominator > 10**12:
            acc = Fraction(acc.numerator % 10**9, 7)
    return (time.perf_counter() - start) * 1000


class PassResult:
    """Latency and outcome of every call of one pass, in plan order."""

    def __init__(self):
        self.wall = 0.0
        self.calib_ms = 0.0
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.incorrect: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_pass(cli, calls: list[Call], workdir: Path) -> PassResult:
    """Run every call through `cli.main`, looked up per call so that a
    traced pass reaches the tracer's wrapper."""
    result = PassResult()
    result.calib_ms = calibrate()
    clock = time.perf_counter
    start = clock()
    for call in calls:
        argv = call.full_argv(workdir)
        t0 = clock()
        code, out = invoke(cli.main, argv)
        result.latencies.append(clock() - t0)
        ok = code == 0
        if call.digest is not None and ok and digest(out) != call.digest:
            ok = False
            result.incorrect.append(f"digest mismatch: {' '.join(call.argv)} on {call.file}")
        elif call.code == 0 and code != 0:
            result.incorrect.append(f"exit {code} (recorded 0): {' '.join(call.argv)} on {call.file}")
        result.ok.append(ok)
    result.wall = clock() - start
    return result


def measure_setup(pkg_name: str, paths: list[Path]) -> float:
    """Seconds to import the package from a clean module table and build a
    RegionEngine for every distinct input."""
    for name in [m for m in sys.modules if m == pkg_name or m.startswith(pkg_name + ".")]:
        del sys.modules[name]
    start = time.perf_counter()
    pkg = importlib.import_module(pkg_name)
    for path in paths:
        _, ideals = pkg.load_input(path)
        pkg.RegionEngine(ideals)
    return time.perf_counter() - start


def check_anchors(main) -> list[str]:
    """Hand-derived values on the running example, independent of the
    recorded digests."""
    problems = []
    code, out = invoke(main, ["canonical", "--input", str(EXAMPLE)])
    if code != 0 or json.loads(out) != [1, 2, 3, 6, 9]:
        problems.append(f"anchor: canonical is {out.strip()!r} (exit {code}), expected [1, 2, 3, 6, 9]")
    code, out = invoke(main, ["enumerate", "--input", str(EXAMPLE), "--box", "1,3"])
    payload = json.loads(out) if code == 0 else {}
    got = (payload.get("distinct_ideals"), len(payload.get("representatives", ())))
    if got != (25, 42):
        problems.append(f"anchor: box 1,3 gives {got} (distinct ideals, representatives), expected (25, 42)")
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def fastest(passes: list[PassResult]) -> list[float]:
    """Each call's fastest latency over the passes, in plan order."""
    return [min(samples) for samples in zip(*(p.latencies for p in passes))]


def check_outcomes(calls: list[Call], passes: list[PassResult]) -> list[str]:
    """A problem for every call whose outcome differs from the first pass."""
    first = passes[0].ok
    return [
        f"outcome changed between passes: {' '.join(call.argv)} on {call.file}"
        for i, call in enumerate(calls)
        if any(p.ok[i] != first[i] for p in passes[1:])
    ]


def end_to_end(calls: list[Call], passes: list[PassResult], setup: list[float]) -> dict:
    """End-to-end metrics from each call's fastest latency over the passes.
    Failed calls count in their group's time but report no regions or
    jumping numbers."""
    best = fastest(passes)
    ok = passes[0].ok
    time_in = {"regions": 0.0, "jumps": 0.0, "points": 0.0, "other": 0.0}
    units = {"regions": 0, "jumps": 0, "points": 0, "other": 0}
    points = []
    for call, seconds, succeeded in zip(calls, best, ok):
        group = GROUP[call.command]
        time_in[group] += seconds
        if group == "points":
            points.append(seconds)
            units[group] += 1
        elif succeeded:
            units[group] += call.units
    rate = {g: units[g] / time_in[g] if time_in[g] else 0.0 for g in time_in}
    p90 = statistics.quantiles(points, n=10)[-1] if len(points) > 1 else sum(points)
    return {
        "run_s": (sum(best), "s"),
        "setup_s": (_median(setup), "s"),
        "regions_per_s": (rate["regions"], "1/s"),
        "jumps_per_s": (rate["jumps"], "1/s"),
        "points_per_s": (rate["points"], "1/s"),
        "point_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((len(ok) - ok.count(False)) / len(ok), "ratio"),
    }


def run_benchmark(plan: Plan, seconds: float, trace: bool, workdir: Path, log=sys.stderr) -> dict:
    """Write the plan's inputs, measure set-up, run passes for `seconds`
    and return the result object printed as the last stdout line."""
    for name, data in plan.files.items():
        (workdir / name).write_bytes(data)
    paths = [workdir / name for name in plan.files]
    problems: list[str] = []
    setup: list[float] = []
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, dict]] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if len(setup) < SETUP_SAMPLES:
            # A set-up sample before each of the first passes spreads the
            # samples over the run, like the passes themselves.
            setup.append(measure_setup("mmideals", paths))
        cli = importlib.import_module("mmideals.cli")
        if not plain:
            problems += check_anchors(cli.main)
        plain.append(run_pass(cli, plan.calls, workdir))
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = run_pass(cli, plan.calls, workdir)
            finally:
                tracer.uninstall()
            traced.append((result, tracer.summary()))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup("mmideals", paths))

    every = plain + [p for p, _ in traced]
    for p in every:
        problems += p.incorrect
    problems += check_outcomes(plan.calls, every)
    if trace:
        metrics = tracing.layer_metrics(
            [s for _, s in traced],
            overhead_s=sum(fastest([p for p, _ in traced])) - sum(fastest(plain)),
            calib_ms=_median([p.calib_ms for p in every]),
        )
    else:
        metrics = end_to_end(plan.calls, plain, setup)
    _report(plan, plain, traced, setup, metrics, problems, log)
    return {
        "correct": not problems,
        "attempted": plain[0].attempted,
        "failed": plain[0].failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _report(plan, plain, traced, setup, metrics, problems, log):
    every = plain + [p for p, _ in traced]
    first = plain[0]
    by_command: dict[str, int] = {}
    for call, ok in zip(plan.calls, first.ok):
        if not ok:
            by_command[call.command] = by_command.get(call.command, 0) + 1
    print(f"workload {plan.workload}, seed {plan.seed}: {len(plan.files)} inputs, "
          f"{len(plan.calls)} calls per pass, {len(plain)} untraced and {len(traced)} traced passes",
          file=log)
    print(f"  setup samples (s): {' '.join(f'{t:.4f}' for t in setup)}", file=log)
    print(f"  pass walls (s): {' '.join(f'{p.wall:.3f}' for p in every)}", file=log)
    print(f"  host calibration per pass (ms): {' '.join(f'{p.calib_ms:.2f}' for p in every)}", file=log)
    print(f"  point queries per pass: {sum(GROUP[c.command] == 'points' for c in plan.calls)}", file=log)
    print(f"  fail_ratio: {first.failed}/{first.attempted} = {first.failed / first.attempted:.4f} "
          f"{by_command}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}", file=log)
    if traced:
        absent = traced[0][1]["absent"]
        if absent:
            print(f"  absent hooks: {', '.join(absent)}", file=log)
        counts = [s["counts"] for _, s in traced]
        if any(c != counts[0] for c in counts):
            print("  warning: counts differ between traced passes", file=log)
    for problem in problems[:20]:
        print(f"  INCORRECT {problem}", file=log)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        load_program()
        table = load_table()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = build_plan(args.workload, args.seed, table)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run_benchmark(plan, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
