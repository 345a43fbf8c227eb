"""Benchmark runner for cardstar.

    python3 bench/run.py --workload paper-check --seed 0 --trace 0
    python3 bench/run.py --workload all --seed 0

Runs one workload (see workloads.py and BENCHMARK.json) in this process
against the package source in ../src.  With --trace 0 it measures the
end-to-end metrics; with --trace 1 it runs the workload twice more under the
span tracer of tracer.py and reports the per-layer metrics.  Every operation's
output is checked.  A table of every metric goes to stdout, followed by one
JSON line, the last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The full record (metrics with sample counts, machine facts, failed operations,
tracing overhead) is written to .bench_out/results/, spans of the traced run
to .bench_out/traces/.  Exit status: 0 when every operation is correct, 1
when any is not, 2 when the package source or BENCHMARK.json is missing.

--workload all runs each workload in turn, each in its own interpreter so that
peak memory is per workload, and ends with one JSON line over all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, strftime

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15

# a fresh interpreter pays import plus the registry build on every CLI call
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import cardstar
cardstar.radii.constants_registry()
t1 = time.perf_counter()
if not cardstar.__file__.startswith({src!r}):
    raise SystemExit("imported cardstar from " + cardstar.__file__)
print(repr(t1 - t0))
"""


def fail_usage(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def load_package():
    """Import cardstar from ../src, never from an installed copy."""
    if not (SRC / "cardstar" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cardstar
    import cardstar.cli  # noqa: F401  (the package does not import its CLI)
    if not Path(cardstar.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return cardstar


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def setup_sample() -> float:
    """Seconds for import plus registry build in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# the points of CpuSteer.probe
_PROBE_POINTS = np.linspace(0.0, 1.0, 256) * (1.0 + 1.0j)


class CpuSteer:
    """Keeps the benchmark on a usable CPU that runs at full speed.

    On a shared virtual machine each CPU runs at full speed or, while
    another tenant contends for it, with every operation taking about half
    as long again, in spells of a fraction of a second to many seconds,
    independently of the other CPUs.  The process is pinned to one CPU.
    Called as each operation ends, the steer moves the process to the next
    CPU when the operation took over a quarter longer than its fastest time
    so far; the operations of a pass are counted in order (`start_pass`
    resets the count).  `settle` waits, briefly, for a CPU at full speed
    before a single timing such as a setup interpreter, which starts on the
    CPU of its parent."""

    SLOW = 1.25
    MIN_SECONDS = 5e-4   # shorter operations say too little about the CPU
    PROBE_SLACK = 1.15   # a probe this close to the fastest one is full speed
    SETTLE_SECONDS = 0.3

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.at = 0
        self.best: list[float] = []
        self.index = 0
        self.best_probe = math.inf
        for cpu in reversed(self.cpus):
            os.sched_setaffinity(0, {cpu})
            self.best_probe = min([self.best_probe] + [self.probe() for _ in range(20)])

    @staticmethod
    def probe() -> float:
        """Seconds for a fixed ~0.15 ms of Python and small numpy work."""
        z = _PROBE_POINTS
        t0 = perf_counter()
        acc = 0.0
        for _ in range(10):
            acc += float(np.abs(1.0 + z + 0.5 * z * z).sum())
        for i in range(1500):
            acc += i * 0.5
        return perf_counter() - t0

    def next_cpu(self):
        if len(self.cpus) > 1:
            self.at = (self.at + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.at]})

    def start_pass(self):
        self.index = 0

    def __call__(self, seconds: float):
        i = self.index
        self.index += 1
        if i == len(self.best):
            self.best.append(seconds)
            return
        slow = seconds > self.SLOW * self.best[i] and self.best[i] >= self.MIN_SECONDS
        self.best[i] = min(self.best[i], seconds)
        if slow:
            self.next_cpu()

    def settle(self):
        t0 = perf_counter()
        while True:
            seconds = min(self.probe(), self.probe())
            self.best_probe = min(self.best_probe, seconds)
            if (seconds <= self.PROBE_SLACK * self.best_probe
                    or perf_counter() - t0 > self.SETTLE_SECONDS):
                return
            self.next_cpu()

    def release(self):
        os.sched_setaffinity(0, self.cpus)


def timed_passes(workload, seconds: float, tally, steer, before_pass=None) -> list[float]:
    """Warm passes until the next one would take the pass time past `seconds`
    (at least one); returns their times.  `before_pass(share)` gets the share
    of `seconds` used so far."""
    times, busy = [], 0.0
    while True:
        if before_pass is not None:
            before_pass(busy / seconds)
        steer.start_pass()
        t0 = perf_counter()
        result = workload.run_pass(steer)
        t1 = perf_counter()
        elapsed = t1 - t0
        tally.add(result, timed=True, span=(t0, t1))
        times.append(elapsed)
        busy += elapsed
        if busy + elapsed > seconds:
            return times


class Tally:
    """Verdicts of every operation of a run, and over the timed passes
    (which repeat the same operations in order) each operation's fastest
    time and each segment's fastest time.  Segment i of a pass runs from the
    end of operation i - 1 (or the start of the pass) to the end of
    operation i, so the segments of a pass add up to its wall time, the code
    between operations included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []   # the first 100
        self.notes: dict[str, int] = {}
        self.best: list[float] = []
        self.best_segments: list[float] = []

    def add(self, result, timed: bool = False, span: tuple[float, float] = (0.0, 0.0)):
        self.attempted += len(result.ops)
        for op in result.ops:
            if not op.ok:
                self.failed += 1
                if len(self.failures) < 100:
                    self.failures.append({"name": op.name, "detail": op.detail})
        for k, v in result.notes.items():
            self.notes[k] = self.notes.get(k, 0) + v
        if timed:
            seconds = [op.seconds for op in result.ops]
            ends = [span[0]] + [op.end for op in result.ops] + [span[1]]
            segments = [b - a for a, b in zip(ends, ends[1:])]
            self.best = [min(a, b) for a, b in zip(self.best, seconds)] if self.best else seconds
            self.best_segments = ([min(a, b) for a, b in zip(self.best_segments, segments)]
                                  if self.best_segments else segments)


def clear_caches(cs, tracer_modules):
    """Drop the package's memo caches so that a traced run starts cold."""
    for name in tracer_modules:
        mod = getattr(cs, name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(obj, dict):
                obj.clear()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure(cs, workload, args, tally) -> tuple[dict, dict]:
    """--trace 0: one untimed pass, then timed warm passes.

    Times are repeat-min: `run_s` is the sum over the segments of a pass of
    each segment's fastest time over the warm passes (see Tally), and each
    operation's latency its fastest time, of which `op_latency_s.*` are
    percentiles over the operations.  The host's speed swings by half in
    spells of seconds, which moves medians, and even the fastest whole pass,
    of the same code more than a bound can allow.  `setup_s` is the median
    of fresh interpreters run between the passes, spread over the run, each
    started once the steer has found a CPU at full speed (or given up)."""
    n_setup = SETUP_SAMPLES if args.scale == "full" else 1
    setup: list[float] = []
    steer = CpuSteer()

    def take_setup(share: float):
        due = min(n_setup, math.ceil(n_setup * share))
        while len(setup) < due:
            steer.settle()
            setup.append(setup_sample())

    try:
        setup_sample()  # untimed: writes the bytecode caches
        tally.add(workload.run_pass(steer))
        run_s = timed_passes(workload, args.seconds, tally, steer, take_setup)
        take_setup(1.0)
    finally:
        steer.release()
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": math.fsum(tally.best_segments),
        "op_latency_s.p50": percentile(tally.best, 50),
        "op_latency_s.p90": percentile(tally.best, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": f"{len(setup)} interpreters",
               "run_s": f"{len(tally.best_segments)} segments x {len(run_s)} passes",
               "op_latency_s.p50": f"{len(tally.best)} operations x {len(run_s)} passes",
               "op_latency_s.p90": f"{len(tally.best)} operations x {len(run_s)} passes",
               "peak_rss_mb": "1 process"}
    extra = {"samples": samples, "setup_s_all": setup, "pass_s_all": run_s,
             "pass_s_min": min(run_s), "pass_s_median": statistics.median(run_s)}
    return metrics, extra


def measure_traced(cs, workload, args, tally) -> tuple[dict, dict, bool]:
    """--trace 1: untraced warm passes, then twice: clear the caches, trace
    the registry build, a cold pass and warm passes for a quarter of
    `--seconds`.  Metrics come from the registry build and the first warm
    pass; the tracing overhead from the fastest warm passes."""
    import tracer as tracing
    steer = CpuSteer()
    tally.add(workload.run_pass(steer))
    untraced = min(timed_passes(workload, args.seconds / 2.0, tally, steer))

    tracer = tracing.Tracer(cs)
    reps, traced = [], []
    for _ in range(2):
        clear_caches(cs, tracing.MODULES)
        tracer.clear()
        marks = []
        try:
            tracer.install()
            m0 = tracer.mark()
            cs.radii.constants_registry()
            m1 = tracer.mark()
            cold = workload.run_pass()
            tally.add(cold)
            traced += timed_passes(workload, args.seconds / 4.0, tally, steer,
                                   lambda share: marks.append(tracer.mark()))
            marks.append(tracer.mark())
        finally:
            tracer.uninstall()
        metrics = tracer.summarize([(m0, m1), (marks[0], marks[1])], [(m0, m1), (m1, marks[0])])
        # a pass writes the same output cold or warm
        metrics["cli.bytes_out"] = cold.bytes_out
        reps.append((metrics, (m0, marks[1])))
    steer.release()
    # the traced objects left in the caches must not leak into later use
    clear_caches(cs, tracing.MODULES)

    counts = [{k: rep[0][k] for k in tracing.COUNT_METRICS} for rep in reps]
    repeat_ok = counts[0] == counts[1]
    if not repeat_ok:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        sys.stderr.write(f"bench: traced counts differ between two runs: {diff}\n")

    metrics, span_range = reps[-1]
    traced_run_s = min(traced)
    OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
    span_file = OUT / "traces" / f"{workload.name}-seed{args.seed}.csv"
    tracer.write_spans(span_file, [span_range])
    extra = {
        "tracing_overhead": {"untraced_run_s": untraced, "traced_run_s": traced_run_s,
                             "overhead_s": traced_run_s - untraced,
                             "overhead_share": traced_run_s / untraced - 1.0,
                             "traced_passes": len(traced)},
        "counts_repeat": repeat_ok,
        "counts_second_run": counts[1],
        "spans": span_range[1] - span_range[0],
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, extra, repeat_ok


def report(workload_name: str, metrics: dict, units: dict, extra: dict, tally: Tally,
           correct: bool) -> dict:
    samples = extra.get("samples", {})
    print(f"workload {workload_name}")
    for name, value in metrics.items():
        n = f"  (n = {samples[name]})" if name in samples else ""
        print(f"  {name:32s} {value!r:>24} {units[name]}{n}")
    share = tally.failed / tally.attempted
    print(f"  {'failed_ops':32s} {share!r:>24} share  "
          f"({tally.failed} of {tally.attempted} operations)")
    if tally.notes:
        total = sum(tally.notes.values())
        print("  " + ", ".join(f"{k} {v / total:.3f}" for k, v in tally.notes.items())
              + f" of {total} operations")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure['name']}: {failure['detail']}")
    return {"correct": correct and not tally.failed, "attempted": tally.attempted,
            "failed": tally.failed, "failed_ops": tally.failures, "shares": tally.notes}


def run_one(args, bench: dict) -> int:
    cs = load_package()
    if cs is None:
        return fail_usage(f"package source not found under {SRC}")
    import workloads

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    workload = workloads.WORKLOADS[args.workload](cs, args.seed, args.scale)
    tally = Tally()
    if args.trace:
        metrics, extra, correct = measure_traced(cs, workload, args, tally)
    else:
        metrics, extra = measure(cs, workload, args, tally)
        correct = True
    if set(metrics) != set(units):
        return fail_usage(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                          f"BENCHMARK.json")
    summary = report(workload.name, metrics, units, extra, tally, correct)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "time": strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra, **summary,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    line = {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": record["metrics"]}
    print(json.dumps(line))
    return 0 if summary["correct"] else 1


def run_all(args, bench: dict) -> int:
    """Each workload in its own interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in bench["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail_usage(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="cardstar benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per pass, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail_usage("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
