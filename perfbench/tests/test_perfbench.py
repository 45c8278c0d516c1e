"""The benchmark's own tests: every workload at a tiny length.

Each workload must print every metric ``BENCHMARK.json`` names (end to end
untraced, per layer traced), a wrong row planted in an oracle must show up
as failed ops, and the traced run's span self times must add up to each
op's wall time, with the untraced remainder reported.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import defaultdict
from pathlib import Path

import pytest

from perfbench import harness, probe, run as bench
from perfbench import compile_workload, mutate_workload, reads_workload
from perfbench.reference import Reference
from perfbench.tracer import Tracer
from repro import Raqlet

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.2"


def _main(workload: str, trace: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(
            ["--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
        )
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    code, lines, result = _main(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    assert any(line.startswith("# host probe: n=") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert {"python", "numpy", "nproc", "git_sha", "seed", "dataset_scale", "op_counts"} <= set(env)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "compile":
        # sp's Soufflé text and the late-bound SQL do not re-parse: 6 of
        # the 13 corpus entries, in every block.
        assert result["failed"] * 13 == result["attempted"] * 6
    else:
        assert result["failed"] == 0


def test_times_and_rates_are_scaled_by_the_host_probe():
    metrics = {
        "a_ms": (2.0, "ms"),
        "b_s": (3.0, "s"),
        "rate": (10.0, "1/s"),
        "rss": (5.0, "MB"),
        "count": (7.0, "1/op"),
    }
    assert harness.scaled(metrics, 0.5) == {
        "a_ms": (1.0, "ms"),
        "b_s": (1.5, "s"),
        "rate": (20.0, "1/s"),
        "rss": (5.0, "MB"),
        "count": (7.0, "1/op"),
    }
    # a host that runs the probe twice as slowly has its times halved; an op
    # takes the probes around it
    reference = probe.REFERENCE_SECONDS
    scale = probe.HostScale([(0.0, reference * 2), (1.0, reference * 2), (2.0, reference)])
    assert scale.factor == pytest.approx(0.6)
    assert scale.at(0.5) == pytest.approx(0.5)
    assert scale.at(1.5) == pytest.approx(1 / 1.5)
    assert scale.at(9.0) == pytest.approx(1.0)
    assert probe.HostScale([], [reference * 2, reference]).setups([1.0, 1.0]) == pytest.approx([0.5, 1.0])
    assert probe.HostScale([]).factor == probe.HostScale([]).at(1.0) == 1.0
    assert probe.HostScale([]).setups([1.0]) == [1.0]
    assert probe.probe() > 0


def test_planted_row_in_graph_oracle_fails_ops(monkeypatch):
    original = Raqlet.run_on_graph_engine
    planted = []

    def run_on_graph_engine(self, compiled, graph, parameters=None):
        result = original(self, compiled, graph, parameters)
        if not planted:
            planted.append(parameters)
            result.rows.append(tuple("planted" for _ in result.columns))
        return result

    monkeypatch.setattr(Raqlet, "run_on_graph_engine", run_on_graph_engine)
    run = reads_workload.run(7, 0.2)
    failed = [op for op in run.ops if op.failure is not None]
    assert failed and len(failed) < len(run.ops)
    assert run.mismatches == len(failed)


def test_planted_row_in_reference_fails_ops(monkeypatch):
    original = Reference._fof

    def fof(self, personId):
        return original(self, personId) | {(-1, "planted")}

    monkeypatch.setattr(Reference, "_fof", fof)
    run = mutate_workload.run(7, 0.2)
    assert run.ops and all(op.failure is not None for op in run.ops)
    assert run.mismatches == len(run.ops)


def test_span_self_times_add_up_to_op_wall_time():
    tracer = Tracer()
    tracer.register_objects()
    try:
        run = compile_workload.run(7, 0.2, tracer)
    finally:
        tracer.close()
    spans = tracer.spans()
    children = defaultdict(float)
    for span_id, name, start, end, parent, request in spans:
        if parent is not None:
            children[parent] += end - start
    self_by_request = defaultdict(float)
    roots = {}
    for span_id, name, start, end, parent, request in spans:
        self_by_request[request] += (end - start) - children[span_id]
        if parent is None:
            assert name == "op"
            roots[request] = (span_id, end - start)
    traced = [op for op in run.ops if op.traced]
    assert len(roots) == len(traced) > 0
    for request, (span_id, wall) in roots.items():
        assert self_by_request[request] == pytest.approx(wall, rel=1e-9, abs=1e-12)
    layers = harness.per_layer(run, tracer)
    remainder = sum(wall - children[span_id] for span_id, wall in roots.values())
    assert layers["trace.untraced_ms"][0] == pytest.approx(remainder / len(traced) * 1e3)
    assert 0 < layers["trace.untraced_ms"][0] < layers["trace.op_ms"][0]
