"""Exact behaviour of the event loop, pinned by digest.

The simulator's hot path is tuned for speed; every such change must
leave the realized events bit for bit where they were.  The digests
below hash the repr of every field of every event (floats repr
round-trip exactly), so any drift in a draw, an ordering or a
bookkeeping rule shows up here.
"""

import dataclasses
import hashlib

import pytest

from reworkopt.encoding import decode, random_chromosome
from reworkopt.improver import make_rescheduler
from reworkopt.instances import generate_instance
from reworkopt.orchestrator import DpeiaConfig, dpeia
from reworkopt.rng import NS_INIT, NS_LABEL, NS_ONLINE, RngStream
from reworkopt.simulate import (ONLINE, STATIC, SimConfig, append_copies,
                                fill_idle_slots, idle_space_count, simulate,
                                simulate_suffix)


def _events_digest(trace) -> str:
    h = hashlib.sha256()
    for events in (trace.job_events, trace.idle_events, trace.maint_events,
                   trace.resched_points):
        for ev in events:
            h.update(repr(dataclasses.astuple(ev)).encode())
        h.update(b"|")
    h.update(repr((trace.makespan, trace.maint_cost, trace.q_count)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def setup60():
    inst = generate_instance(60, 3)
    master = RngStream.from_seed(11)
    counts = idle_space_count(inst, master.substream(NS_INIT))
    idle_types = tuple(t for t in sorted(counts) for _ in range(counts[t]))
    chrom = random_chromosome(inst, idle_types, master.substream(NS_INIT, 1))
    chrom.zeta, chrom.n_u, chrom.thr_r = 0.5, 2, 0.2
    return inst, master, chrom


STATIC_DIGESTS = {
    (0, False): "498d63538739c0932503bc30fc5f39e9f0a00934641814d8027dcb2e8eabef45",
    (1, False): "744491eb1a432b919dc242f14a613d56df5889f78eb63e48076a9394111ca3ee",
    (2, False): "1654c1b3020b4861c02013be598af6b39740d5a6ed2e6529fd7d4438a9b43bbc",
    (0, True): "eb77eb299ea971b4c8305a5c80c172ba91b7ebdb6cf46e135188c25d5ae796ba",
}


@pytest.mark.parametrize("rep,det", sorted(STATIC_DIGESTS))
def test_static_event_lists_are_pinned(setup60, rep, det):
    inst, master, chrom = setup60
    tr = simulate(inst, decode(chrom, inst), master.substream(NS_LABEL, rep),
                  SimConfig(mode=STATIC, det=det))
    assert _events_digest(tr) == STATIC_DIGESTS[(rep, det)]


ONLINE_DIGEST = "e3bcf886df4e99cd6984f1c9dd222ffac9fc79193210a40e268542c31c364b50"


def test_online_execution_is_pinned(setup60):
    inst, master, chrom = setup60
    counter = [0]
    tr = simulate(inst, decode(chrom, inst), master.substream(NS_ONLINE, 0, 0),
                  SimConfig(mode=ONLINE, rescheduler=make_rescheduler(2, counter)))
    assert tr.resched_points
    assert _events_digest(tr) == ONLINE_DIGEST
    # the run itself, which its requester counts, and every projection
    assert 1 + counter[0] == 121


SUFFIX_FIRST_TRIGGER = {"fill": (184.60630084845332, 12736.0, 27),
                        "append": (197.30925743922583, 12736.0, 27)}


def test_suffix_projections_at_the_first_trigger_are_pinned(setup60):
    inst, master, chrom = setup60
    seen = []

    def hook(ctx):
        if not seen:
            seen.append({
                "fill": simulate_suffix(ctx, fill_idle_slots(ctx), ctx.rng),
                "append": simulate_suffix(ctx, append_copies(ctx), ctx.rng)})
        return append_copies(ctx), None

    simulate(inst, decode(chrom, inst), master.substream(NS_ONLINE, 0, 0),
             SimConfig(mode=ONLINE, rescheduler=hook))
    assert seen and seen[0] == SUFFIX_FIRST_TRIGGER


DPEIA_DIGEST = "7329c533cdf20114601c2b15abe665aaa416cb11d8b0eac5f191b4a21f85dd25"


def test_whole_dpeia_run_is_pinned():
    """Planning labels, previews, online executions and the archive of
    one small seeded run, with its simulator-call count."""
    res = dpeia(generate_instance(40, 2),
                DpeiaConfig(pop_size=6, max_iter=6, n_rounds=2, label_reps=2), 3)
    h = hashlib.sha256()
    for e in res.archive.entries:
        h.update(repr((e.objectives.makespan, e.objectives.maint_cost,
                       e.round_index, e.elite_index, e.f_eva,
                       e.digest)).encode())
    h.update(repr((res.sim_calls, res.rounds_log, res.idle_types)).encode())
    assert res.sim_calls == 88
    assert h.hexdigest() == DPEIA_DIGEST
