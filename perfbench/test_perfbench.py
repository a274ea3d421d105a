"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from pathlib import Path

import pytest

import generate
import run
import tracing

run.load_program()
TABLE = run.load_table()
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(plan: run.Plan) -> run.Plan:
    """The plan cut to its cheapest successful call of each command, on the
    files those calls read."""
    cheapest: dict[str, run.Call] = {}
    for call in plan.calls:
        if call.file.startswith("chain80") or call.code != 0:
            continue
        best = cheapest.get(call.command)
        if best is None or (call.units, len(call.argv)) < (best.units, len(best.argv)):
            cheapest[call.command] = call
    calls = list(cheapest.values())
    files = {name: data for name, data in plan.files.items() if any(c.file == name for c in calls)}
    return run.Plan(plan.workload, plan.seed, files, calls)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = run.build_plan(workload, 11, TABLE)
    again = run.build_plan(workload, 11, TABLE)
    other = run.build_plan(workload, 12, TABLE)
    assert first.files == again.files
    assert [c.full_argv(Path("w")) for c in first.calls] == [c.full_argv(Path("w")) for c in again.calls]
    assert [c.full_argv(Path("w")) for c in first.calls] != [c.full_argv(Path("w")) for c in other.calls]


def test_every_generated_input_is_valid(tmp_path):
    pkg = importlib.import_module("mmideals")
    inputs = {f"chain{n}-{item['index']}": generate.chain(n, generate.item_rng(f"chain{n}", item["index"]))
              for n in (40, 80) for item in TABLE["chains"][str(n)]}
    for family in generate.CORPUS_FAMILIES:
        for index in range(2 * len(TABLE["corpus"][family])):
            inputs[f"{family}-{index}"] = generate.corpus_input(family, generate.item_rng(family, index))
    for name, data in inputs.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(generate.dumps(data))
        graph, ideals = pkg.load_input(path)
        assert ideals.r == 2
        assert 4 <= graph.n_exc <= 80
        family = name.split("-")[0]
        assert ideals.is_m_primary() == (family != "affine"), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported(workload, trace, tmp_path):
    plan = _small(run.build_plan(workload, 3, TABLE))
    result = run.run_benchmark(plan, 0, bool(trace), tmp_path, log=io.StringIO())
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == len(plan.calls)


def _pass(latencies, ok):
    result = run.PassResult()
    result.latencies, result.ok = list(latencies), list(ok)
    return result


def test_calls_are_timed_at_their_fastest_and_counted_once():
    plan = run.build_plan("corpus", 7, TABLE)
    calls = plan.calls[:3]
    ok = [call.code == 0 for call in calls]
    passes = [_pass([0.3, 0.2, 0.5], ok), _pass([0.1, 0.4, 0.6], ok), _pass([0.2, 0.3, 0.4], ok)]
    assert run.fastest(passes) == [0.1, 0.2, 0.4]
    metrics = run.end_to_end(calls, passes, [1.0])
    assert metrics["run_s"][0] == pytest.approx(0.7)
    assert metrics["ok_ratio"][0] == ok.count(True) / 3
    assert run.check_outcomes(calls, passes) == []
    flipped = _pass([0.1, 0.1, 0.1], [not ok[0]] + ok[1:])
    assert len(run.check_outcomes(calls, passes + [flipped])) == 1


def _bindings():
    """Every attribute of the mmideals modules and of the classes the
    tracer hooks, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "mmideals" or name.startswith("mmideals."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
    for module, cls, _ in tracing.SPANS + tracing.COUNTERS:
        if cls:
            owner = getattr(sys.modules[f"mmideals.{module}"], cls)
            for key, value in vars(owner).items():
                seen[(module, cls, key)] = value
    return seen


def test_untraced_pass_after_traced_one_sees_originals(tmp_path):
    plan = _small(run.build_plan("corpus", 5, TABLE))
    for name, data in plan.files.items():
        (tmp_path / name).write_bytes(data)
    cli = importlib.import_module("mmideals.cli")
    before = _bindings()

    summaries = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(cli, plan.calls, tmp_path)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    assert tracer.absent == []
    assert summaries[0]["counts"] == summaries[1]["counts"]
    assert summaries[0]["counts"]["divisors.Divisor.le"] > 0
    assert summaries[0]["spans"]["cli.main"][0] == len(plan.calls)

    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    spans = len(tracer.spans)
    result = run.run_pass(cli, plan.calls, tmp_path)
    assert len(tracer.spans) == spans
    assert result.attempted == len(plan.calls)


def test_renamed_hook_is_reported_absent(monkeypatch):
    importlib.import_module("mmideals.cli")
    engine = importlib.import_module("mmideals.regions").RegionEngine
    monkeypatch.delattr(engine, "_prioritize")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["regions.RegionEngine._prioritize"]
