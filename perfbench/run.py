"""Benchmark runner: one workload per process, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-k16 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one child each

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same job with span wrappers installed and prints the per-layer metrics,
the per-layer table and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("search-k16", "train-vgg8", "noise-grid", "serve-stream")
#: Each of these selects a different program (execution lane, kernel
#: guards, experiment budgets), so a run under any of them is refused.
FORBIDDEN_ENV = ("REPRO_EXEC_BACKEND", "REPRO_CHECK_FINITE", "REPRO_FULL")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Setup-only repetitions before the timed loop, so setup_s is a median
#: even when the workload's job fits the run only once.
EXTRA_SETUPS = 2
#: Rounds of the other jobs' probes; rounds interleave the probes so a
#: slow spell of the machine does not land on one probe's every sample.
PROBE_ROUNDS = 4


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def pin_blas_threads() -> int:
    """One BLAS thread: steadier timings on a shared machine, and within
    the ``nproc`` bound.  Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


class Cpu:
    """Pins the process to the fastest allowed CPU and gauges its speed
    throughout each unit of work.

    On a shared virtual machine each vCPU alternates, independently of
    the others, between fast and slow spells of seconds (noisy
    neighbours on the host), and the whole host shifts between faster
    and slower regimes for minutes at a time; the same code then runs up
    to ~1.7x slower.  Before every unit of work (a setup, a run of a
    job, an import) the runner pins itself to the CPU on which a fixed
    speed sample runs fastest.  While the unit runs, an interval timer
    interrupts it every ``PERIOD_S`` seconds to time the sample again, so
    the samples follow the spells the unit runs through.  The unit's
    times are then reported at nominal speed: multiplied by the mean
    over the samples of ``NOMINAL_SAMPLE_S`` over the sample's time.

    The sample is a small GEMM and an im2col-style patch copy with
    numpy, on fixed arrays: the kind of work the jobs do, by code that
    no change to the program can speed up.  (A pure-Python spin tracked
    the jobs less well.)
    """

    PERIOD_S = 0.02
    #: Seconds of one sample in a fast spell of the machine the
    #: benchmark was built on (a 2-vCPU Xeon virtual machine, one BLAS
    #: thread); times are reported at this speed.
    NOMINAL_SAMPLE_S = 1.0e-4

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._gemm = rng.standard_normal((64, 64)).astype(np.float32)
        self._image = rng.standard_normal((4, 4, 18, 18)).astype(np.float32)
        self._patches = np.lib.stride_tricks.sliding_window_view(self._image, (3, 3),
                                                                 axis=(2, 3))
        self._copy = np.ascontiguousarray
        self.cpus = sorted(os.sched_getaffinity(0))
        self.scales: list = []
        self._samples: list = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> float:
        """Seconds of one speed sample on the current CPU."""
        t0 = time.perf_counter()
        self._gemm @ self._gemm
        self._copy(self._patches)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(self.sample())

    def _speed_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(self.sample() for _ in range(5))

    def start(self) -> None:
        """Pin to the fastest CPU and start sampling its speed."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {min(self.cpus, key=self._speed_on)})
        self._samples = [self.sample()]
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; returns the factor that brings the unit's times
        to nominal speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._samples.append(self.sample())
        factor = statistics.fmean(self.NOMINAL_SAMPLE_S / t for t in self._samples)
        self.scales.append(factor)
        return factor


def at_nominal_speed(result: dict, scale: float) -> dict:
    """A job's run result with its times multiplied by ``scale``."""
    out = dict(result, seconds=result["seconds"] * scale)
    if "latencies" in result:
        out["latencies"] = [t * scale for t in result["latencies"]]
    return out


IMPORT = "import repro, repro.experiments, repro.hardware"
#: Cold imports timed in child processes, besides this process's own.
CHILD_IMPORTS = 1


def import_program(cpu: Cpu) -> float:
    """Cold-import the program from this checkout; returns the median
    seconds (at nominal speed) of this process's import and
    CHILD_IMPORTS child processes'.  numpy, which the speed sample
    needs, is loaded before the clock starts in both."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    cpu.start()
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.hardware  # noqa: F401
    samples = [(time.perf_counter() - t0) * cpu.stop()]
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported repro from {repro.__file__}, not from {src}")
    code = ("import time, numpy; t0 = time.perf_counter(); " + IMPORT
            + "; print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(src))
    for _ in range(CHILD_IMPORTS):
        # The child inherits the pinned CPU, which the samples time-share.
        cpu.start()
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                               capture_output=True, text=True, check=True)
        samples.append(float(child.stdout) * cpu.stop())
    return statistics.median(samples)


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(blas_threads: int, cpu: Cpu) -> dict:
    """The environment a result was measured in."""
    import numpy as np
    import scipy

    from repro import default_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus": cpu.cpus,
        "cpu_policy": "pinned to the fastest cpu per unit of work; times at nominal speed",
        "nominal_sample_s": cpu.NOMINAL_SAMPLE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "exec_backend": default_backend().name,
        "git_sha": git_sha(),
    }


def run_all(args) -> int:
    """Run every workload, each in its own child process."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def make_jobs(workload: str, seed: int, ref: dict, workdir: str):
    """(primary job, probe jobs) of a workload."""
    from workloads import NoiseJob, SearchJob, ServeJob, TrainJob

    makers = {
        "search-k16": lambda probe: SearchJob(seed, ref["search-k16"], probe),
        "train-vgg8": lambda probe: TrainJob(seed, ref["train-vgg8"], probe),
        "noise-grid": lambda probe: NoiseJob(seed, ref["noise-grid"], probe),
        "serve-stream": lambda probe: ServeJob(seed, ref["serve-stream"], workdir, probe),
    }
    return makers[workload](False), [m(True) for w, m in makers.items() if w != workload]


def measure(job, probes, seconds: float, checks, cpu: Cpu, tracer=None):
    """Run the workload's job for ``seconds``, with the probe rounds
    spread over the same window.

    Returns (setup times, untraced results, traced results, probe
    results), all times at nominal speed (see :class:`Cpu`).  A (setup, run) cycle of the job starts only if the
    previous cycle and probe round suggest that it and the probe rounds
    still due will end in time; at least one cycle always runs.  Probe
    round ``k`` runs before the first cycle that starts after
    ``k * seconds / PROBE_ROUNDS``; rounds left over run at the end.
    With a tracer there are no probes, and cycles alternate untraced /
    traced, starting untraced, so the two can be compared.
    """
    from workloads import check_no_disk_cache

    setups = []
    for _ in range(EXTRA_SETUPS):
        cpu.start()
        t0 = time.perf_counter()
        job.setup()
        setups.append((time.perf_counter() - t0) * cpu.stop())
    runs, traced_runs = [], []
    probe_results = {id(p): [] for p in probes}
    rounds, round_s = 0, 0.0

    def probe_round():
        t0 = time.perf_counter()
        for probe in probes:
            for _ in range(probe.PROBE_UNITS):
                cpu.start()
                result = probe.run(probe.setup(), checks)
                probe_results[id(probe)].append(at_nominal_speed(result, cpu.stop()))
        return time.perf_counter() - t0

    start = time.perf_counter()
    last = 0.0
    while not runs or (tracer is not None and not traced_runs) or \
            time.perf_counter() - start + last + (PROBE_ROUNDS - rounds) * round_s <= seconds:
        if probes and rounds < PROBE_ROUNDS and \
                time.perf_counter() - start >= rounds * seconds / PROBE_ROUNDS:
            round_s = probe_round()
            rounds += 1
        traced = tracer is not None and len(runs) > len(traced_runs)
        cpu.start()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = job.setup()
            setup_s = time.perf_counter() - t0
            result = job.run(state, checks)
            last = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        scale = cpu.stop()
        setups.append(setup_s * scale)
        (traced_runs if traced else runs).append(at_nominal_speed(result, scale))
        check_no_disk_cache(checks)
    while probes and rounds < PROBE_ROUNDS:
        probe_round()
        rounds += 1
    return setups, runs, traced_runs, [probe_results[id(p)] for p in probes]


def layer_metrics(tracer, n_traced: int, import_s: float, overhead: float, traced_runs) -> dict:
    """Per-layer metrics, per traced cycle (one setup plus one run)."""
    from tracer import SPAN_NAMES

    table = tracer.table()
    m = {"import.repro.s": import_s}
    for name in SPAN_NAMES:
        row = table[name]
        m[f"{name}.calls"] = row["calls"] / n_traced
        m[f"{name}.s"] = row["s"] / n_traced
        m[f"{name}.self_s"] = row["self_s"] / n_traced
    hits, misses = tracer.counters["ptc.cache.hits"], tracer.counters["ptc.cache.misses"]
    m["ptc.cache.hits"] = hits / n_traced
    m["ptc.cache.misses"] = misses / n_traced
    m["ptc.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sizes = [b for r in traced_runs for b in r.get("batch_sizes", [])]
    m["hardware.batches"] = len(sizes) / n_traced
    m["hardware.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
    m["hardware.recalibrations"] = sum(r.get("recalibrations", 0) for r in traced_runs) / n_traced
    m["trace.overhead"] = overhead
    return m


def print_samples(setups, runs, scales) -> None:
    """Sample summaries (with counts) behind the workload's own metrics,
    and of the speed factors that brought them to nominal speed."""
    from stats import summarize

    samples = {"setup_s": summarize(setups),
               "run_s": summarize([r["seconds"] for r in runs]),
               "speed_scale": summarize(scales)}
    latencies = [1e3 * t for r in runs for t in r.get("latencies", ())]
    if latencies:
        samples["latency_ms"] = summarize(latencies)
    for name, summary in samples.items():
        print(f"{name}: " + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))


def print_layer_table(tracer, n_traced: int) -> None:
    table = tracer.table()
    print(f"per-layer table (per traced cycle, {n_traced} traced):")
    print(f"  {'span':<34} {'calls':>10} {'s':>10} {'self_s':>10}")
    for name, row in table.items():
        print(f"  {name:<34} {row['calls'] / n_traced:>10.1f} "
              f"{row['s'] / n_traced:>10.4f} {row['self_s'] / n_traced:>10.4f}")


def main() -> int:
    args = parse_args()
    bad = [v for v in FORBIDDEN_ENV if os.environ.get(v)]
    if bad:
        fail(f"{', '.join(bad)} set: it selects a different program; unset it to benchmark")
    if args.workload == "all":
        return run_all(args)
    blas_threads = pin_blas_threads()
    cpu = Cpu()
    import_s = import_program(cpu)
    fp = fingerprint(blas_threads, cpu)

    from workloads import Checks
    from tracer import Tracer

    ref = json.loads((HERE / "reference.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        job, probes = make_jobs(args.workload, args.seed, ref, workdir)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            probes = []
        setups, runs, traced_runs, probe_runs = measure(job, probes, args.seconds, checks,
                                                        cpu, tracer)
        if tracer is None:
            print_samples(setups, runs, cpu.scales)
            metrics = job.summarize(runs)
            for probe, results in zip(probes, probe_runs):
                metrics.update(probe.summarize(results))
    if tracer is None:
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain = statistics.fmean(r["seconds"] for r in runs)
        with_trace = statistics.fmean(r["seconds"] for r in traced_runs)
        overhead = with_trace / plain - 1
        print_layer_table(tracer, len(traced_runs))
        metrics = layer_metrics(tracer, len(traced_runs), import_s, overhead, traced_runs)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"tracing overhead: {100 * overhead:+.1f}% ({plain:.4g} s untraced, "
              f"{with_trace:.4g} s traced per run of the job); spans in {trace_path}")
    # Exactly the metrics BENCHMARK.json declares, with its units.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: (metrics[m["name"]], m["unit"]) for m in declared}

    fail_rate = checks.failed / checks.attempted
    for name, (value, unit) in out.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_rate {fail_rate:.6g} ratio ({checks.failed} of {checks.attempted})")
    print("verdicts: " + json.dumps(checks.verdicts, sort_keys=True))
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
