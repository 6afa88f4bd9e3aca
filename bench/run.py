"""dualdet benchmark: seeded closed-loop workloads, checked outputs, and a
separate traced run for per-layer metrics.

    python3 bench/run.py --workload figures --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload figures --seed 1 --seconds 28 --trace 1
    python3 bench/run.py --check

Workloads: figures, searches, scan, cli (see workloads.py). With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 the
per-layer ones. The program is imported from src/ of the checkout that
holds this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-up is measured in this many fresh processes, spread evenly over the
#: measured phase so that they meet the machine at different moments;
#: setup_s is their median.
SETUP_SAMPLES = 15
#: The p90 latency needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Machine-speed calibration: the median of CAL_REPEATS runs of
#: _calibration_loop, refreshed at least every CAL_INTERVAL_S of wall time.
CAL_REPEATS = 5
CAL_INTERVAL_S = 0.1
#: The loop's usual CPU time on the machine the bounds were set on (Intel
#: Xeon, 2 vCPU, Python 3.11.7). Times are reported at this speed.
CAL_REF_NS = 200_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("figures", "searches", "scan", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="diff outputs against golden/ without timing")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": git_commit(),
        "workload": args.workload,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "samples": samples,
    }


# ---------------------------------------------------------------------------


class Tally:
    """Op outcomes. `failed` counts wrong outputs and unexpected exceptions,
    and `correct` is false if there is any. An invalid spec that the
    validators accept is the known defect of ROADMAP item 5: it lowers
    `ok_ratio` but does not count as failed, so that no op of a workload
    fails while the defect stands."""

    def __init__(self):
        self.counts = {}

    def add(self, status: str) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts.get("wrong", 0) + self.counts.get("error", 0)

    @property
    def ok(self) -> int:
        return self.counts.get("ok", 0)

    @property
    def correct(self) -> bool:
        return not self.failed


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def children_cpu_ns() -> int:
    return int(cpu_s(resource.RUSAGE_CHILDREN) * 1e9)


def _calibration_loop() -> float:
    # Floats and a math call, like the rate kernels; it allocates no
    # container objects, so it never triggers the cyclic garbage collector.
    total = 0.0
    for i in range(1, 1500):
        x = i * 6e-4
        total -= x * math.log2(x)
    return total


def calibrate() -> int:
    """CPU ns of the calibration loop now (median of CAL_REPEATS runs)."""
    runs = []
    for _ in range(CAL_REPEATS):
        t0 = time.thread_time_ns()
        _calibration_loop()
        runs.append(time.thread_time_ns() - t0)
    return statistics.median(runs)


class Meter:
    """Op CPU time, scaled to the reference machine speed.

    CPU time is the thread's for in-process ops and the child process's
    (user + system) for cli ops. The program is CPU-bound and never waits
    on I/O or locks, so CPU time is its latency minus waits for a CPU that
    other processes hold. On a shared VM, CPU time still includes time the
    hypervisor gives to other guests. On the machine the bounds were set
    on, a fixed loop ran 20-40% slower for seconds at a time. Over 28 s
    runs, raw ops/s spread 15% between seeds. Each op's time is therefore
    multiplied by CAL_REF_NS / (the calibration loop's time in this process,
    the mean of the measurements just before and after the op, each at most
    CAL_INTERVAL_S old). That scaling brought the spread to about 3%. The
    process is pinned to one CPU (see main), so the calibration also
    describes the CPU a cli child runs on. Raw sums are kept for the report.
    """

    def __init__(self, children: bool):
        self.cpu_ns = children_cpu_ns if children else time.thread_time_ns
        self.raw_ns = 0
        self._scale = 1.0
        self._due = 0.0

    def scale(self) -> float:
        now = time.perf_counter()
        if now >= self._due:
            self._scale = CAL_REF_NS / calibrate()
            self._due = now + CAL_INTERVAL_S
        return self._scale


def run_ops(workload, inputs, n_ops, deadline, tally, meter, first_index=0, tracer=None) -> array:
    """Run ops until n_ops are done or the deadline (wall clock) passes;
    return each op's time in ns at the reference speed (see Meter). With a
    tracer, spans are recorded during each op and not during its check.
    Times are kept as C doubles so that the benchmark's own memory barely
    moves peak_rss_mib."""
    latencies = array("d")
    index = first_index
    clock = meter.cpu_ns
    while (n_ops is None or len(latencies) < n_ops) and (deadline is None or time.perf_counter() < deadline):
        inp = next(inputs)
        scale = meter.scale()
        if tracer is not None:
            tracer.op, tracer.active = index, True
        t0 = clock()
        raised = None
        try:
            out = workload.run(inp)
        except Exception as exc:  # noqa: BLE001 - an op's unexpected failure is counted, not fatal
            raised = exc
        elapsed = clock() - t0
        if tracer is not None:
            tracer.active = False
        # A cli op lasts longer than CAL_INTERVAL_S: average the speed before and after it.
        scale = 0.5 * (scale + meter.scale())
        if raised is not None:
            status = "error"
            print(f"op {index}: {type(raised).__name__}: {raised}", file=sys.stderr)
        else:
            status = workload.check(index, inp, out)
            if status == "wrong" and tally.counts.get(status, 0) < 5:
                print(f"op {index}: wrong output for input {str(inp)[:120]}", file=sys.stderr)
        tally.add(status)
        meter.raw_ns += elapsed
        latencies.append(elapsed * scale)
        index += 1
    return latencies


def measure_setup(args) -> float:
    """CPU seconds from process start to 'ready' in a fresh set-up-only
    process (its own and its children's, which the cli warm-up has),
    scaled by the calibration the process makes right after."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise SystemExit(f"set-up probe failed with status {proc.returncode}: {proc.stdout}")
    return float(fields[1]) * CAL_REF_NS / float(fields[2])


def percentile(values_ns: array, q: int) -> float:
    return statistics.quantiles(values_ns, n=100, method="inclusive")[q - 1] / 1e6


def timed_run(args, workload, samples: dict) -> tuple[dict, Tally]:
    tally = Tally()
    meter = Meter(children=workload.name == "cli")
    inputs = workload.inputs()
    latencies, setup = array("d"), []
    start = time.perf_counter()
    for k in range(1, SETUP_SAMPLES + 1):
        deadline = start + args.seconds * k / SETUP_SAMPLES
        latencies += run_ops(workload, inputs, None, deadline, tally, meter, first_index=len(latencies))
        setup.append(measure_setup(args))
    if workload.name == "cli":
        peak_kib = workload.peak_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(latencies)
    if n * (1 - 0.9) < MIN_TAIL_SAMPLES:
        print(f"warning: {n} ops leave fewer than {MIN_TAIL_SAMPLES} samples beyond p90", file=sys.stderr)
    samples.update(ops=n, setup=len(setup), p90_tail=n - int(0.9 * n),
                   raw_cpu_ops_per_s=n / (meter.raw_ns / 1e9))
    # name: (value, unit, sample count)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (n / (sum(latencies) / 1e9), "1/s", n),
        "op_ms_p50": (percentile(latencies, 50), "ms", n),
        "op_ms_p90": (percentile(latencies, 90), "ms", n),
        "ok_ratio": (tally.ok / tally.attempted, "ratio", tally.attempted),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB", 1),
    }
    return metrics, tally


def trace_run(args, workload, samples: dict) -> tuple[dict, Tally]:
    """Per-layer metrics: microbenchmarks, the L5 split, then alternating
    untraced and traced blocks of the workload's first ops until time is up."""
    import micro
    import tracer as T

    start = time.perf_counter()
    metrics = dict(micro.microbench())
    metrics.update(micro.process_split(workload.run_dir / "l5"))
    tally = Tally()
    meter = Meter(children=workload.name == "cli")
    block = workload.trace_block
    counts_first = None
    repeat_ok = True
    times, ratios, spans_first = [], [], None
    deadline = start + args.seconds
    while counts_first is None or time.perf_counter() < deadline:
        plain = run_ops(workload, workload.inputs(), block, None, tally, meter)
        block_run = traced_cli_block if workload.name == "cli" else traced_block
        spans, traced = block_run(workload, T.Tracer(), args, tally, meter)
        counts, block_times = T.summarize(spans, block)
        if counts_first is None:
            counts_first, spans_first = counts, spans
        elif counts != counts_first:
            repeat_ok = False
            print("traced counts differ between blocks of the same ops", file=sys.stderr)
        times.append(block_times)
        ratios.append(sum(traced) / sum(plain))
    metrics.update({k: (v, _unit(k)) for k, v in counts_first.items()})
    for key in times[0]:
        metrics[key] = (statistics.median(t[key] for t in times), _unit(key))
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    samples.update(blocks=len(times), ops_per_block=block)
    OUT_DIR.mkdir(exist_ok=True)
    T.write_spans(OUT_DIR / f"spans-{workload.name}.csv.gz", spans_first, json.dumps(stamp(args, samples)))
    if not repeat_ok:
        tally.add("wrong")
    return metrics, tally


def traced_block(workload, tr, args, tally, meter) -> tuple[list, array]:
    tr.install()
    try:
        latencies = run_ops(workload, workload.inputs(), workload.trace_block, None, tally, meter,
                            tracer=tr)
    finally:
        tr.restore()
    return tr.take(), latencies


def traced_cli_block(workload, tr, args, tally, meter) -> tuple[list, array]:
    """Each op's process runs under bench/cli_child.py, which installs its own
    Tracer and writes its spans; they are joined here with parent indices
    offset and op ids set."""
    spans, latencies = [], array("d")
    inputs = workload.inputs()
    workload.traced_spans = workload.run_dir / "child_spans.json"
    try:
        for i in range(workload.trace_block):
            latencies += run_ops(workload, inputs, 1, None, tally, meter, first_index=i)
            child = json.loads(workload.traced_spans.read_text(encoding="utf-8"))
            offset = len(spans)
            for s in child:
                s[3] = s[3] + offset if s[3] >= 0 else -1
                s[4] = i
            spans += child
    finally:
        workload.traced_spans = None
    return spans, latencies


def _unit(name: str) -> str:
    for suffix, unit in (("ns_per_call", "ns"), ("_ms_per_op", "ms"),
                         ("_us_per_op", "us"), ("bytes_per_call", "bytes"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dualdet" / "__init__.py").is_file():
        print(f"benchmark: no dualdet package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    if args.check:
        import golden

        return golden.check()

    # One CPU for this process and every process it starts, so that the speed
    # calibration, made here, describes the CPU the cli children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workload = W.WORKLOADS[args.workload](args.seed, run_dir)
    try:
        workload.setup()
        if args.setup_probe:
            ready = cpu_s(resource.RUSAGE_SELF) + cpu_s(resource.RUSAGE_CHILDREN)
            print(f"ready {ready!r} {calibrate()!r}", flush=True)
            return 0
        samples = {}
        metrics, tally = (trace_run if args.trace else timed_run)(args, workload, samples)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# {json.dumps(stamp(args, samples))}")
    print(f"# ops: {tally.attempted} attempted, {tally.failed} failed "
          f"({', '.join(f'{k} {v}' for k, v in sorted(tally.counts.items()))})")
    for name, (value, unit, *n) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s}" + (f" n={n[0]}" if n else ""))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
