"""Benchmark of growthlab's growth, geometry and amalgam pipelines.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 35 --trace 0

One process runs one workload: a fixed list of operations, one at a time
(a closed loop with a single caller), repeated in whole passes until
``--seconds`` have gone by.  Each operation is timed from its call to its
returned result, with the garbage collector off; its output is checked
afterwards, outside the timed region.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

--trace 0 reports the end-to-end metrics: setup_s (the median over fresh
processes of the CPU time each spends from its start until its inputs
are built), pass_s (the median pass time) and peak_rss_mb.  Both times
are scaled to the reference machine speed by ``gauge``.  --trace 1
alternates untraced passes with passes that have every layer wrapped,
and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per process: numpy's BLAS would otherwise start a helper thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 12
GAUGE_REF_S = 0.0041  # mean time of one gauge() on the reference machine (README)


def gauge() -> float:
    """Seconds one fixed chunk of pure-Python work takes: the machine's speed now.

    The chunk hashes small tuples into a dict and formats integers, the
    kind of interpreter work growthlab does, and touches nothing of
    growthlab.  On a shared machine its time moves by a third from one
    minute to the next, and growthlab's with it.  Times are scaled by
    ``GAUGE_REF_S`` over the mean gauge time measured alongside them,
    which takes most of that movement out, while a change to growthlab
    still shows in full.
    """
    start = time.perf_counter()
    counts: dict = {}
    digits = 0
    for i in range(10000):
        key = (i & 127, (i * 7) & 63)
        counts[key] = counts.get(key, 0) + 1
        digits += len(str(i))
    return time.perf_counter() - start


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="build the inputs, print the CPU seconds spent so far and exit")
    return p.parse_args(argv)


def load(workload: str, seed: int, workdir: Path):
    """Import growthlab from the checkout and build the workload's operations."""
    if not (ROOT / "src" / "growthlab" / "__init__.py").is_file():
        sys.exit(f"growthlab sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import growthlab.cli  # noqa: F401  (the whole package, in every workload's set-up)

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, seed, workdir)


def probe_setup(args) -> float:
    """CPU seconds (user and system) a fresh interpreter spends from its
    start until its inputs are built, as the child reports them.

    CPU time leaves out the time the process waited for a CPU.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        child.stdout.read()
        if child.wait() != 0 or not line.startswith("ready "):
            sys.exit("set-up probe failed")
    return float(line.split()[1])


class Runner:
    """Runs whole passes over the operation list and checks every result."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.op_times: list[list[float]] = [[] for _ in ops]
        self.wall: list[float] = []
        self.gauges: list[float] = []

    def one_pass(self, tracer=None) -> float:
        """One pass; returns its time scaled by the gauge (see ``gauge``).

        The gauge runs before every operation, outside its timed region.
        """
        total = speed = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            gc.disable()
            self.gauges.append(gauge())
            speed += self.gauges[-1]
            start = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an operation that raises has failed
                result, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            gc.enable()
            total += elapsed
            self.op_times[i].append(elapsed)
            if error is None:
                error = op.check(result)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if op.fault is None or result is None:
                    self.unexpected.append(f"{op.name}: {error}")
                else:
                    other = op.fault(result)
                    if other is not None:
                        self.unexpected.append(f"{op.name}: {error} (not the known fault: "
                                               f"{other})")
        self.wall.append(total)
        return total * GAUGE_REF_S * len(self.ops) / speed

    def passes(self, seconds: float, between=None) -> list[float]:
        """Whole passes until ``seconds`` have gone by; ``between`` runs after each."""
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            times.append(self.one_pass())
            if between is not None:
                between()
        return times


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = load(args.workload, args.seed, workdir)
        if args.probe:
            print(f"ready {time.process_time()!r}", flush=True)
            return 0
        gc.collect()
        gc.freeze()
        runner = Runner(ops)
        if not args.trace:
            # set-up probes are spread evenly over the run, between passes,
            # so that they sample the same stretch of machine time as the
            # passes do
            setups = []
            start = time.perf_counter()

            def probe():
                due = SETUP_PROBES * (time.perf_counter() - start) / args.seconds
                while len(setups) < min(due, SETUP_PROBES):
                    setups.append(probe_setup(args))

            pass_times = runner.passes(args.seconds, between=probe)
            while len(setups) < SETUP_PROBES:
                setups.append(probe_setup(args))
            # the probes are spread over the run like the gauges, so the
            # run's mean gauge is the machine speed they ran at
            scale = GAUGE_REF_S / statistics.fmean(runner.gauges)
            for label, values in (("pass scaled", pass_times), ("pass wall", runner.wall),
                                  ("setup cpu", setups)):
                print(f"{label}: " + " ".join(f"{t:.4f}" for t in values), file=sys.stderr)
            print(f"gauge mean: {statistics.fmean(runner.gauges):.6f}", file=sys.stderr)
            metrics = {
                "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
                "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MiB"},
            }
        else:
            import tracing

            # untraced and traced passes alternate, so that both medians
            # sample the same stretch of machine time
            tracer = tracing.Tracer()
            plain, traced = [], []
            deadline = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < deadline:
                plain.append(runner.one_pass())
                tracer.install()
                try:
                    tracer.start_pass()
                    traced.append(runner.one_pass(tracer))
                finally:
                    tracer.uninstall()
            metrics = tracer.metrics(overhead_s=statistics.median(traced)
                                     - statistics.median(plain))
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"trace-{args.workload}.csv", [op.name for op in ops])
        for op, times in zip(ops, runner.op_times):
            print(f"{statistics.median(times):9.4f} s  {op.name}", file=sys.stderr)
        for line in runner.unexpected:
            print(f"FAILED {line}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        result = {"correct": not runner.unexpected, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps({
            "seed": args.seed, "ops": [op.name for op in ops], "op_times": runner.op_times,
            "result": result}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
