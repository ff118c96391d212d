"""tropfan benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` without being installed.  One process runs a closed loop with one
client: each op starts when the previous one and its output check are done.
The workload's round of seeded ops is repeated, in whole rounds, until the
timed part reaches ``--seconds``.  Op and setup times are calibrated for
the host's own changes of speed (see hostspeed.py).  Output checks run
outside the timed part; an op that raises or fails its check counts as
failed and makes the exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones: it
runs the rounds untraced for half the time, then the same rounds traced, and
writes every span to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 3  # fresh processes timed from start to first op; the median is setup_s
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops above it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit (used to time setup_s)")
    return p.parse_args(argv)


def load_library():
    """Put the checkout's src/ first on sys.path; exit 2 if it is missing."""
    if not (SRC / "tropfan" / "__init__.py").is_file():
        print(f"error: no tropfan package under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tropfan

    if Path(tropfan.__file__).resolve().parent != SRC / "tropfan":
        print(f"error: tropfan imported from {tropfan.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args) -> list[float]:
    """Calibrated time from spawning a fresh interpreter to its first op being
    due.  The probe samples the host's speed while it sets up and reports the
    time its reference blocks took and their mean (see hostspeed.py)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
        word, *numbers = line.split() or [""]
        if proc.returncode != 0 or word != "ready" or len(numbers) != 2:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        spent, factor = map(float, numbers)
        times.append((wall - spent) / factor)
    return times


class Loop:
    """Runs whole rounds of a workload and keeps per-op times and failures."""

    def __init__(self, bench):
        self.bench = bench
        self.times: list[float] = []  # calibrated op times
        self.wall: list[float] = []  # wall op times, less the reference blocks
        self.factors: list[float] = []  # host slowdown during each op
        self.failed = 0
        self.speed = HostSpeed()

    def rounds(self, seconds: float = 0.0, count: int | None = None, tracer=None) -> tuple[int, float]:
        """Run rounds until ``count`` are done or the timed sum reaches
        ``seconds``; returns (rounds, timed seconds) of this call."""
        done, timed = 0, 0.0
        while True:
            for op in self.bench.round:
                timed += self._one(op, tracer)
            done += 1
            if (done == count) if count is not None else timed >= seconds:
                return done, timed

    def _one(self, op, tracer) -> float:
        if tracer is not None:
            tracer.active = True
        self.speed.start()
        start = perf_counter()
        try:
            result = self.bench.run(op)
            error = None
        except Exception as exc:  # counted as a failed op, the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        self.speed.stop()
        if tracer is not None:
            tracer.active = False
        elapsed = self.speed.calibrated(wall)
        self.times.append(elapsed)
        self.wall.append(wall - self.speed.spent)
        self.factors.append(self.speed.factor())
        if error is None:
            try:
                problems = self.bench.check(op, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            self.failed += 1
            print(f"FAILED {self.bench.name} {op.label}: {error}", file=sys.stderr)
        return elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with TAIL_BEYOND ops above
    it; the slowest op and 100 when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def context(args, rounds: int, ops_per_round: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tropfan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": ops_per_round,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        speed = HostSpeed()
        speed.start()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = workloads.WORKLOADS[args.workload](args.seed)
    bench.setup()
    if args.setup_probe:
        speed.stop()
        print(f"ready {speed.spent!r} {speed.factor()!r}", flush=True)
        return 0
    setup_times = [] if args.trace else measure_setup(args)  # setup_s is untraced only
    gc.collect()

    loop = Loop(bench)
    if args.trace:
        import tracer as tracing

        rounds, plain_s = loop.rounds(seconds=args.seconds / 2)
        plain_ops = len(loop.times)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced_s = loop.rounds(count=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        # Spans are in wall seconds, so their base is the traced wall time.
        metrics = tracer.layer_metrics(rounds, sum(loop.wall[plain_ops:]))
        metrics["op_tail_s"], metrics["op_tail.pct"] = tail(loop.times[:plain_ops])
        metrics["fail_ratio"] = loop.failed / len(loop.times)
        metrics["trace.overhead"] = plain_s / traced_s - 1
        metrics["wall.ops_per_s"] = plain_ops / sum(loop.wall[:plain_ops])
        metrics["host.slowdown"] = statistics.median(loop.factors)
        wanted = spec["per_layer"]
    else:
        rounds, timed = loop.rounds(seconds=args.seconds)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(loop.times) / timed,
            "op_p50_s": statistics.median(loop.times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    ctx = context(args, rounds, len(bench.round))
    ctx["setup_probes_s"] = setup_times
    ctx["op_s"] = [round(t, 4) for t in loop.times]
    ctx["op_wall_s"] = [round(t, 4) for t in loop.wall]
    ctx["host_slowdown"] = [round(f, 4) for f in loop.factors]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", ctx)
    print("context: " + json.dumps(ctx))
    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
