"""The benchmark's tracer still fits this checkout.

``perfbench/tracer.py`` rebinds module globals of tropfan to timing wrappers,
so renaming or deleting one of those names breaks ``run.py --trace``.  This
test installs the tracer, runs a small traced workload through the rebound
names (a chamber path, a level set and every cone of a small fan, whose
relative-interior and rank calls must show as spans), uninstalls it and
checks that every module global is the original object again.  It is skipped in a tree without ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tropfan.classify import parse_signs
from tropfan.fan import dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("geometry", "fan", "classify", "dual", "relu", "matroids")


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is absent")
def test_perfbench_tracer_installs_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [importlib.import_module(f"tropfan.{name}") for name in MODULES]
    before = [dict(vars(m)) for m in modules]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = {
            (m.__name__, attr)
            for m, old in zip(modules, before)
            for attr, value in vars(m).items()
            if old.get(attr) is not value
        }
        assert ("tropfan.classify", "chamber_path") in rebound
        assert ("tropfan.classify", "max_slack") in rebound
        tracer.active = True
        line = dataset([(1,), (2,), (2,), (4,)])
        classify = modules[MODULES.index("classify")]  # the benchmark calls through it
        classify.chamber_path(parse_signs("-,-,-,-"), parse_signs("+,+,+,+"), line)
        classify.level_set(line, 1, 1, parse_signs("+,-,-,+"), 1)
        fan = modules[MODULES.index("fan")]
        fan.enumerate_all_cones(dataset([(0, 0), (2, 1), (1, 3)]), 2)
        tracer.active = False
    finally:
        tracer.uninstall()

    spans = {span[2] for span in tracer.spans}
    assert {
        "classify.chamber_path", "classify.level_set", "fan.fan_index",
        "geometry.lp.classify", "geometry.lp.fan",
        "fan.enumerate_all_cones", "fan.cone_of_graph", "geometry.relint", "geometry.rank",
    } <= spans
    for m, old in zip(modules, before):
        now = vars(m)
        assert now.keys() == old.keys(), m.__name__
        assert [a for a in old if now[a] is not old[a]] == [], m.__name__
