"""Benchmark of reworkopt: offline planning, online rework and seeded
experiments, end to end and by layer.

    python3 perfbench/run.py --workload plan-100 --seed 1 --seconds 20 --trace 0

Workloads: plan-100, online-200, dpeia-seeds (see README.md).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs one untraced round for reference, then traced rounds, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Runs from a
plain checkout: the package is imported from ``src`` next to this
directory, and nothing is installed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# set-up is timed in this many fresh processes and the median reported
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


def measure(wl, seconds: float, tracer=None):
    """Run whole rounds of the workload's operations until the timed
    part reaches ``seconds``; returns (per-op durations, failed ops)."""
    import workloads
    durations: list[float] = []
    failed = 0
    timed = 0.0
    rnd = 0
    while True:
        for i in range(wl.n_ops):
            if tracer is not None:
                tracer.enter("bench.op")
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # an operation the program fails
                dt = time.perf_counter() - t0
                failed += 1
                print("operation %d failed: %r" % (i, exc), file=sys.stderr)
                out = None
            else:
                dt = time.perf_counter() - t0
            if tracer is not None:
                dt, _ = tracer.exit()
            durations.append(dt)
            timed += dt
            if out is None:
                continue
            try:
                if tracer is not None:
                    with tracer.paused():
                        errs = wl.check(i, out)
                else:
                    errs = wl.check(i, out)
            except workloads.KnownFault as exc:
                failed += 1
                if rnd == 0:
                    print("operation %d failed: %s" % (i, exc), file=sys.stderr)
                continue
            if errs:
                raise CheckFailed("round %d, operation %d: %s"
                                  % (rnd, i, "; ".join(errs[:5])))
        rnd += 1
        if timed >= seconds:
            return durations, failed


def fresh_setups(workload: str, seed: int, n: int) -> list[float]:
    """Seconds from the start of a fresh process to the point where its
    first operation would start, for n processes one after the other."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError("set-up process exited with %d" % proc.returncode)
    return times


def peak_rss_mb(pool_workers: int) -> float:
    """Peak resident memory of this process, plus, for a run with a
    process pool, the largest worker's peak once per worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare the workload, print 'ready' and exit "
                         "(used to time set-up in fresh processes)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reworkopt", "__init__.py")):
        print("perfbench: no reworkopt package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reworkopt._kernel
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    print("workload %s  seed %d  backend %s  python %s  nproc %d"
          % (args.workload, args.seed, reworkopt._kernel.BACKEND,
             platform.python_version(), len(os.sched_getaffinity(0))))
    try:
        if args.trace:
            ref, failed = measure(wl, 0.0)
            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                durations, failed_t = measure(wl, args.seconds, tracer)
            finally:
                layers.uninstall()
            failed += failed_t
            ratio = (sum(durations) / len(durations)) / (sum(ref) / len(ref))
            metrics = layers.per_layer(tracer, len(durations), ratio)
            units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
            attempted = len(ref) + len(durations)
            print("spans by parent>child:")
            print("\n".join(layers.parent_lines(tracer, len(durations))))
        else:
            durations, failed = measure(wl, args.seconds)
            # before the set-up processes, which would count among the children
            rss = peak_rss_mb(getattr(wl, "jobs", 0))
            setups = fresh_setups(args.workload, args.seed, SETUP_REPEATS)
            print("set-up in fresh processes: %s s"
                  % " ".join("%.3f" % t for t in setups))
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(durations) / sum(durations),
                "op_p50_ms": 1000.0 * statistics.median(durations),
                "peak_rss_mb": rss,
            }
            units = END_TO_END
            attempted = len(durations)
    except CheckFailed as exc:
        print("perfbench: output check failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        workloads.remove_runs_dir()

    for line in wl.notes():
        print(line)
    print("operations attempted %d  failed %d" % (attempted, failed))
    for name, value in metrics.items():
        print("  %-34s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
