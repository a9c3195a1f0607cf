"""Per-layer tracing installed from outside the program.

Each wrapper replaces a public function at the place where the program
looks the name up (a module global, a module attribute or a class
attribute), records a span around the call and restores the original on
``uninstall``.  Spans are aggregated as they close: per span name the
number of calls, the inclusive time and the self time (inclusive time
minus the time covered by child spans), and per (parent, child) pair the
number of calls.  Nothing is kept per call, so a traced run stays small
however many calls it makes.

Seeds of a harness run execute in pool workers.  The worker-side wrapper
writes the worker's aggregate next to the seed's outputs, and the
parent-side wrapper of ``run_experiment`` merges it back.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import time
from contextlib import contextmanager

import reworkopt
from reworkopt import _kernel, encoding, harness, improver, model, orchestrator
from reworkopt import planner, rng, storage

simulate_mod = importlib.import_module("reworkopt.simulate")

_WORKER_FILE = "trace-seed-%d.json"


class Tracer:
    """Span aggregates and deterministic counters of one process."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.enabled = True
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []          # [name, start, child_time, paused]
        self.stats: dict[str, list] = {}     # name -> [calls, incl_s, self_s]
        self.edges: dict[str, int] = {}      # "parent>child" -> calls
        self.counts: dict[str, float] = {}

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0, 0.0])

    def exit(self) -> tuple[float, float]:
        """Close the innermost span; returns (inclusive, self) seconds."""
        now = time.perf_counter()
        name, start, child, paused = self.stack.pop()
        incl = now - start - paused
        own = incl - child
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += incl
        st[2] += own
        parent = self.parent()
        if parent is not None:
            self.stack[-1][2] += incl
        edge = "%s>%s" % (parent, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        return incl, own

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def paused(self):
        """Run benchmark-side work unrecorded and off every open span's
        clock."""
        was = self.enabled
        self.enabled = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for frame in self.stack:
                frame[3] += dt
            self.enabled = was

    def snapshot(self) -> dict:
        return {"pid": os.getpid(), "stats": self.stats, "edges": self.edges,
                "counts": self.counts}

    def merge(self, snap: dict) -> None:
        for name, (calls, incl, own) in snap["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        for edge, n in snap["edges"].items():
            self.edges[edge] = self.edges.get(edge, 0) + n
        for name, n in snap["counts"].items():
            self.count(name, n)


# -- installation ------------------------------------------------------

_state: dict = {"tracer": None, "saved": []}


def _patch(owner, attr: str, make) -> None:
    orig = getattr(owner, attr)
    _state["saved"].append((owner, attr, orig))
    setattr(owner, attr, make(orig))


def _spanned(name: str):
    """Plain span around the call."""
    def make(fn):
        def wrapper(*args, **kw):
            tr = _state["tracer"]
            if not tr.enabled:
                return fn(*args, **kw)
            tr.enter(name)
            try:
                return fn(*args, **kw)
            finally:
                tr.exit()
        return wrapper
    return make


_PURPOSE = {"planner.label": "label", "planner.preview": "preview",
            "orchestrator.pilot": "pilot"}


def _simulate(fn):
    def wrapper(inst, plan, root, cfg=None):
        tr = _state["tracer"]
        if not tr.enabled:
            return fn(inst, plan, root, cfg)
        parent = tr.parent()
        online = cfg is not None and cfg.mode == simulate_mod.ONLINE
        purpose = "online" if online else _PURPOSE.get(parent, "other")
        tr.enter("simulate.simulate")
        try:
            trace = fn(inst, plan, root, cfg)
        finally:
            incl, _ = tr.exit()
        tr.count("simulate.calls." + purpose)
        if online and parent == "orchestrator.dpeia":
            tr.count("orchestrator.online_s", incl)
        tr.count("simulate.job_events", len(trace.job_events))
        tr.count("simulate.idle_events", len(trace.idle_events))
        for ev in trace.maint_events:
            tr.count("simulate.%s_actions" % ev.kind)
        tr.count("simulate.reschedules", len(trace.resched_points))
        return trace
    return wrapper


def _emode_step(fn):
    def wrapper(pop, *args, **kw):
        tr = _state["tracer"]
        if not tr.enabled:
            return fn(pop, *args, **kw)
        tr.enter("planner.step")
        try:
            out = fn(pop, *args, **kw)
        finally:
            tr.exit()
        parents = {id(ind) for ind in pop}
        tr.count("planner.children", len(pop))
        tr.count("planner.children_kept",
                 len({id(ind) for ind in out} - parents))
        return out
    return wrapper


def _reschedule(fn):
    def wrapper(ctx, budget, counter=None):
        tr = _state["tracer"]
        if not tr.enabled:
            return fn(ctx, budget, counter)
        tr.enter("improver.reschedule")
        try:
            queues, f_r = fn(ctx, budget, counter)
        finally:
            tr.exit()
        with tr.paused():
            f_append = append_score(ctx)
        if f_r > f_append:
            tr.count("improver.beat_append")
        return queues, f_r
    return wrapper


def append_score(ctx) -> float:
    """Score of the tail-append fallback on the trigger's own context."""
    span, cost, q = simulate_mod.simulate_suffix(
        ctx, simulate_mod.append_copies(ctx), ctx.rng)
    return simulate_mod.fitness_resched(q, cost, span)


def _storage_write(name: str):
    def make(fn):
        def wrapper(*args):
            tr = _state["tracer"]
            if not tr.enabled:
                return fn(*args)
            tr.enter(name)
            try:
                fn(*args)
            finally:
                tr.exit()
            tr.count("storage.bytes_written", os.path.getsize(args[-1]))
        return wrapper
    return make


def _run_experiment(fn):
    def wrapper(cfg):
        tr = _state["tracer"]
        if not tr.enabled:
            return fn(cfg)
        tr.enter("harness.run_experiment")
        try:
            out = fn(cfg)
        finally:
            incl, own = tr.exit()
        busy: dict[int, float] = {}
        pattern = os.path.join(cfg.outdir, _WORKER_FILE.replace("%d", "*"))
        for path in sorted(glob.glob(pattern)):
            with open(path) as fh:
                snap = json.load(fh)
            tr.merge(snap)
            busy[snap["pid"]] = busy.get(snap["pid"], 0.0) + snap["seed_s"]
        # what the pool adds beyond its busiest worker's seed work
        tr.count("harness.pool_overhead_s", own - max(busy.values(), default=0.0))
        return out
    return wrapper


def run_one_seed(inst, cfg, seed):
    """Stands in for harness._run_one_seed; pickled by reference, so it
    must stay a module-level function.  Pool workers are forked from the
    tracing process and inherit its tracer."""
    tr = _state["tracer"]
    orig = _state["run_one_seed"]
    if not tr.enabled:
        return orig(inst, cfg, seed)
    if os.getpid() == tr.owner_pid:     # serial harness run
        tr.enter("harness.seed")
        try:
            return orig(inst, cfg, seed)
        finally:
            tr.exit()
    tr.reset()
    tr.enter("harness.seed")
    try:
        out = orig(inst, cfg, seed)
    finally:
        seed_s, _ = tr.exit()
    snap = tr.snapshot()
    snap["seed_s"] = seed_s
    with open(os.path.join(cfg.outdir, _WORKER_FILE % seed), "w") as fh:
        json.dump(snap, fh)
    return out


def install(tracer: Tracer) -> None:
    if _state["tracer"] is not None:
        raise RuntimeError("tracing already installed")
    _state["tracer"] = tracer
    _patch(_kernel, "job_step", _spanned("kernel.job_step"))
    _patch(rng.RngStream, "substream", _spanned("rng.substream"))
    _patch(model.ProblemInstance, "capable_machines",
           _spanned("model.capable_machines"))
    for mod in (encoding, planner, orchestrator, simulate_mod):
        _patch(mod, "decode", _spanned("encoding.decode"))
    for mod in (reworkopt, planner, orchestrator, simulate_mod):
        _patch(mod, "simulate", _simulate)
    _patch(improver, "simulate_suffix", _spanned("simulate.simulate_suffix"))
    _patch(planner, "label_static_obj", _spanned("planner.label"))
    _patch(planner, "det_preview", _spanned("planner.preview"))
    _patch(planner, "emode_step", _emode_step)
    _patch(improver, "reschedule", _reschedule)
    _patch(orchestrator, "idle_space_count", _spanned("orchestrator.pilot"))
    _patch(harness, "dpeia", _spanned("orchestrator.dpeia"))
    _patch(harness, "write_aggregate_report", _spanned("metrics.report"))
    _patch(harness, "run_experiment", _run_experiment)
    for name in ("save_instance", "save_archive", "save_manifest", "save_report"):
        _patch(storage, name, _storage_write("storage." + name))
    _state["run_one_seed"] = harness._run_one_seed
    _state["saved"].append((harness, "_run_one_seed", harness._run_one_seed))
    harness._run_one_seed = run_one_seed


def uninstall() -> None:
    for owner, attr, orig in reversed(_state["saved"]):
        setattr(owner, attr, orig)
    _state["saved"] = []
    _state["tracer"] = None


# -- per-layer metrics ------------------------------------------------

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "kernel.job_step.calls": ("count/op", "lower"),
    "kernel.job_step.self_s": ("s/op", "lower"),
    "rng.substream.calls": ("count/op", "lower"),
    "rng.substream.self_s": ("s/op", "lower"),
    "model.capable_machines.calls": ("count/op", "lower"),
    "model.capable_machines.self_s": ("s/op", "lower"),
    "encoding.decode.calls": ("count/op", "lower"),
    "encoding.decode.self_s": ("s/op", "lower"),
    "simulate.calls.label": ("count/op", "lower"),
    "simulate.calls.preview": ("count/op", "lower"),
    "simulate.calls.pilot": ("count/op", "lower"),
    "simulate.calls.online": ("count/op", "lower"),
    "simulate.calls.suffix": ("count/op", "lower"),
    "simulate.simulate.self_s": ("s/op", "lower"),
    "simulate.simulate_suffix.self_s": ("s/op", "lower"),
    "simulate.job_events": ("count/op", "lower"),
    "simulate.idle_events": ("count/op", "lower"),
    "simulate.cm_actions": ("count/op", "lower"),
    "simulate.pm_actions": ("count/op", "lower"),
    "simulate.reschedules": ("count/op", "lower"),
    "planner.label.calls": ("count/op", "lower"),
    "planner.label.self_s": ("s/op", "lower"),
    "planner.preview.calls": ("count/op", "lower"),
    "planner.step.self_s": ("s/op", "lower"),
    "planner.children_kept_share": ("ratio", "higher"),
    "improver.reschedule.calls": ("count/op", "lower"),
    "improver.reschedule.self_s": ("s/op", "lower"),
    "improver.suffix_per_reschedule": ("ratio", "lower"),
    "improver.beat_append_share": ("ratio", "higher"),
    "orchestrator.dpeia_s": ("s/op", "lower"),
    "orchestrator.pilot_s": ("s/op", "lower"),
    "orchestrator.online_share": ("ratio", "lower"),
    "harness.pool_overhead_s": ("s/op", "lower"),
    "storage.write_s": ("s/op", "lower"),
    "storage.bytes_written": ("B/op", "lower"),
    "metrics.report_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def parent_lines(tr: Tracer, n_ops: int) -> list[str]:
    """Calls per operation of every (parent, span) pair, most first."""
    return ["  %-60s %14.3f calls/op" % (edge, n / n_ops)
            for edge, n in sorted(tr.edges.items(), key=lambda e: (-e[1], e[0]))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, n_ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-operation layer figures from the aggregates of n_ops traced
    operations.  Times of pool workers are summed over the workers."""
    def calls(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[2]

    c = tr.counts.get
    out = {}
    for span in ("kernel.job_step", "rng.substream", "model.capable_machines",
                 "encoding.decode"):
        out[span + ".calls"] = calls(span) / n_ops
        out[span + ".self_s"] = own(span) / n_ops
    for purpose in ("label", "preview", "pilot", "online"):
        out["simulate.calls." + purpose] = c("simulate.calls." + purpose, 0) / n_ops
    out["simulate.calls.suffix"] = calls("simulate.simulate_suffix") / n_ops
    out["simulate.simulate.self_s"] = own("simulate.simulate") / n_ops
    out["simulate.simulate_suffix.self_s"] = own("simulate.simulate_suffix") / n_ops
    for name in ("job_events", "idle_events", "cm_actions", "pm_actions",
                 "reschedules"):
        out["simulate." + name] = c("simulate." + name, 0) / n_ops
    out["planner.label.calls"] = calls("planner.label") / n_ops
    out["planner.label.self_s"] = own("planner.label") / n_ops
    out["planner.preview.calls"] = calls("planner.preview") / n_ops
    out["planner.step.self_s"] = own("planner.step") / n_ops
    out["planner.children_kept_share"] = _ratio(c("planner.children_kept", 0),
                                                c("planner.children", 0))
    n_resched = calls("improver.reschedule")
    out["improver.reschedule.calls"] = n_resched / n_ops
    out["improver.reschedule.self_s"] = own("improver.reschedule") / n_ops
    out["improver.suffix_per_reschedule"] = _ratio(
        calls("simulate.simulate_suffix"), n_resched)
    out["improver.beat_append_share"] = _ratio(c("improver.beat_append", 0),
                                               n_resched)
    out["orchestrator.dpeia_s"] = incl("orchestrator.dpeia") / n_ops
    out["orchestrator.pilot_s"] = incl("orchestrator.pilot") / n_ops
    out["orchestrator.online_share"] = _ratio(c("orchestrator.online_s", 0),
                                              incl("orchestrator.dpeia"))
    out["harness.pool_overhead_s"] = c("harness.pool_overhead_s", 0.0) / n_ops
    out["storage.write_s"] = sum(incl(n) for n in tr.stats
                                 if n.startswith("storage.")) / n_ops
    out["storage.bytes_written"] = c("storage.bytes_written", 0) / n_ops
    out["metrics.report_s"] = own("metrics.report") / n_ops
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in PER_LAYER}
