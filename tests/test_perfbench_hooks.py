"""The benchmark's tracer still finds the names and call shapes it wraps.

perfbench/layers.py patches program functions by name and calls them
with fixed argument lists; a rename or a changed signature would break
the benchmark without failing any other test.  The module is executed
from its source, so nothing is written under perfbench/.
"""

import os
import types

from reworkopt import ONLINE, SimConfig, planner, simulate
from reworkopt.encoding import decode, random_chromosome
from reworkopt.improver import make_rescheduler
from reworkopt.instances import generate_instance
from reworkopt.orchestrator import _pilot_idle_types
from reworkopt.planner import PlannerConfig, plan
from reworkopt.rng import NS_INIT, NS_ONLINE, RngStream

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "layers.py")


def _load_layers():
    with open(LAYERS) as fh:
        code = compile(fh.read(), LAYERS, "exec")
    mod = types.ModuleType("perfbench_layers")
    mod.__file__ = LAYERS
    exec(code, mod.__dict__)
    return mod


def test_the_benchmark_tracer_records_planner_and_improver_spans(
        monkeypatch):
    # on two CPUs a batch would fork helpers, whose spans the tracer
    # would miss: the wrapped label keeps every label in this process
    monkeypatch.setattr(planner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(planner, "HELPER_MIN_S", 0.0)
    layers = _load_layers()
    inst = generate_instance(20, 0)
    master = RngStream.from_seed(0)
    idle_types = _pilot_idle_types(inst, master)
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))
    chrom.thr_r = 0.2               # rework triggers at most completions
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        plan(inst, 2, master, PlannerConfig(pop_size=4, label_reps=2),
             idle_types)
        tr = simulate(inst, decode(chrom, inst),
                      master.substream(NS_ONLINE, 0, 0),
                      SimConfig(mode=ONLINE, rescheduler=make_rescheduler(2)))
    finally:
        layers.uninstall()
    assert tr.resched_points
    for span in ("planner.label", "planner.step", "improver.reschedule"):
        assert tracer.stats.get(span, [0])[0] > 0, span
    # an initial population and two generations of 4 labels each
    assert tracer.stats["planner.label"][0] == 4 * 3
