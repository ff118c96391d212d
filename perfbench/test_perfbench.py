"""Self-tests of the benchmark: seeded inputs, output checks, tracer, CLI.

    python3 -m pytest -q perfbench/test_perfbench.py

They run one op per workload (about a minute in all) and one full run of the
cheapest workload through the command line.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed, reference_block  # noqa: E402
from run import Loop  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def built(name: str, seed: int = 1):
    bench = workloads.WORKLOADS[name](seed)
    bench.setup()
    return bench


def cheapest_op(bench):
    """The op the self-tests run: the first of the round, except in fan-enum,
    whose degenerate datasets enumerate fastest."""
    if bench.name == "fan-enum":
        return next(op for op in bench.round if op.label.startswith("coincident"))
    return bench.round[0]


@pytest.fixture(scope="module")
def ran():
    """One op of every workload with its result, seed 1."""
    out = {}
    for name in NAMES:
        bench = built(name)
        op = cheapest_op(bench)
        out[name] = (bench, op, bench.run(op))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_inputs_repeat_for_one_seed_and_differ_for_another(name):
    first, again, other = built(name, 1), built(name, 1), built(name, 2)
    assert repr(first.round) == repr(again.round)
    assert repr(first.round) != repr(other.round)


@pytest.mark.parametrize("name", NAMES)
def test_check_accepts_the_true_result(ran, name):
    bench, op, result = ran[name]
    assert bench.check(op, result) == []


def _perturbed(name, bench, op, result):
    """Results with one deliberate defect each."""
    if name == "fan-enum":
        index, assigns = result
        reps = list(index.reps)
        i, j = next((i, j) for i in range(len(reps)) for j in range(len(reps))
                    if i != j and len(reps[i].parts) == len(reps[j].parts))
        reps[i] = dataclasses.replace(reps[i], witness_blocks=reps[j].witness_blocks)
        yield index, assigns[:-1]
        yield type(index)(index.data, index.N, reps), assigns
    elif name == "level-walls":
        got = [p.assignment() for p in result.patterns]
        x, y = next((x, y) for x in range(len(got)) for y in range(x + 1, len(got))
                    if not oracle.is_wall_shape(got[x], got[y], bench.data.points))
        yield dataclasses.replace(result, patterns=result.patterns[1:])
        yield dataclasses.replace(result, adjacency=result.adjacency + ((x, y, 11),))
    elif name == "relu-boundary":
        theta, pruned, edges, svg = result
        lifted = tuple((a + Fraction(1, 3), s) for a, s in pruned.num.terms)
        shifted = dataclasses.replace(pruned.num, terms=lifted)
        yield theta, dataclasses.replace(pruned, num=shifted), edges, svg
        yield theta, pruned, edges, svg.replace("</svg>", "<g/></svg>")
    else:
        cones, pattern_report, covectors, om_report, start, target, path = result
        yield cones, pattern_report, covectors[1:], om_report, start, target, path
        yield cones, pattern_report, covectors, om_report, start, target, path[::-1]


@pytest.mark.parametrize("name", NAMES)
def test_check_rejects_perturbed_results(ran, name):
    bench, op, result = ran[name]
    bad = list(_perturbed(name, bench, op, result))
    assert len(bad) == 2
    for result_bad in bad:
        assert bench.check(op, result_bad) != []


@pytest.mark.parametrize("name", NAMES)
def test_smoke_pass_has_no_failures(name):
    bench = built(name)
    bench.round = [cheapest_op(bench)]
    loop = Loop(bench)
    assert loop.rounds(count=1)[0] == 1
    assert loop.failed == 0 and len(loop.times) == 1


def test_host_speed_samples_during_a_section_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    speed.start()
    start = perf_counter()
    while perf_counter() - start < 0.2:
        reference_block()
    wall = perf_counter() - start
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) >= 5 and 0 < speed.spent < wall / 2
    assert speed.calibrated(wall) == (wall - speed.spent) / speed.factor()


# Per workload, traced metrics that one op must move.
EXERCISED = {
    "fan-enum": ("geometry.lp.fan.calls", "fan.classes", "fan.fan_index.self_s"),
    "level-walls": ("geometry.lp.classify.calls", "classify.walls", "classify.pairs"),
    "relu-boundary": ("geometry.lp.dual.calls", "geometry.lp.relu.calls", "relu.terms_kept",
                      "dual.decision_boundary.calls", "tropical.eval.calls"),
    "all-faces": ("geometry.relint.calls", "geometry.rank.calls", "fan.cone_of_graph.calls",
                  "matroids.om_axioms.s", "classify.chamber_path.s"),
}


@pytest.mark.parametrize("name", NAMES)
def test_tracer_attributes_layers_and_restores_the_library(ran, name):
    bench, op, result = ran[name]
    before = workloads.fan.fan_index, workloads.classify.max_slack
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        bench.run(op)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (workloads.fan.fan_index, workloads.classify.max_slack) == before
    metrics = tracer.layer_metrics(1, 1.0)
    for key in EXERCISED[name]:
        assert metrics[key] > 0, key
    assert metrics["geometry.lp.errors"] == 0


def test_command_line_contract():
    """A full traced-off run prints the result as its last line; a directory
    holding only the benchmark files makes it fail without a result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all-faces", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    bare_root = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare_root, ignore_errors=True)
    shutil.copytree(HERE, bare_root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare_root)
    bare = subprocess.run(cmd, cwd=bare_root, capture_output=True, text=True, timeout=180)
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout
