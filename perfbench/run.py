"""mimomrc benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ser_analytic --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the workload is repeated at least twice and
then until ``--seconds`` would be exceeded, and the end-to-end metrics
(medians over the passes) are printed. With ``--trace 1`` one untraced and
one traced pass are run and the per-layer metrics of the traced pass are
printed. Every metric is
printed on its own line with its unit; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads, metrics and checks are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "mimomrc" / "__init__.py").is_file():
    sys.exit(f"error: no mimomrc package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import mimomrc  # noqa: E402
from tracing import Tracer, layer_metrics, tail  # noqa: E402
from workloads import MC_GATE_SIGMAS, WORKLOADS, Failure, load_reference, warm_up  # noqa: E402

if Path(mimomrc.__file__).resolve().parent != (SRC / "mimomrc").resolve():
    sys.exit(f"error: imported mimomrc from {mimomrc.__file__}, not from {SRC}")

# Fresh interpreters started to time `import mimomrc`; the median is reported.
SETUP_SAMPLES = 5
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mimomrc\n"
    "print(time.perf_counter() - t)\n"
)

_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def process_cpu() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_CPUS = os.cpu_count() or 1


def host_steal_s() -> float:
    """Steal time of this machine's CPUs so far, summed over them: time a
    CPU had work but the hypervisor ran something else. 0 where the kernel
    does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


# Host-speed calibration. On the 2-vCPU Xeon (2.0 GHz) virtual machine the
# benchmark was built on, identical work ran up to 1.7x slower for stretches
# of seconds to minutes while the host was busy. A fixed kernel is timed
# between operations, outside their timings. For a workload in HOST_SCALED,
# each operation's time is multiplied by the kernel's nominal time / (the
# mean of the two kernel timings that bracket it), i.e. reported in seconds
# of a host at nominal speed; the printed lines also give the measured
# times. Each scaled workload has the kernel that best predicted its
# operations: scalar Python plus small eigenproblems for config_scan, and
# for mc_crosscheck a batch of random 3x3 complex products as large as a
# Monte-Carlo batch, which also feels the host's memory contention. Over 16
# to 22 passes the first kernel cut the pass-to-pass spread (quartile
# distance over median) of config_scan from 0.35 to 0.13, where the second
# gave 0.19; on mc_crosscheck the second cut it from 0.09 to 0.06 and that
# of the CLI outage command from 0.15 to 0.10, where the first gave 0.10 and
# 0.29. No kernel predicted the GIL-bound two-thread sweeps of ser_analytic
# (spread 0.08-0.15 measured, ~0.2 scaled), so that workload reports
# measured times. Every workload's wall times leave out stolen time (see
# Pass) before any scaling. The choice is fixed per workload, so a change to the
# program cannot move a metric between the two. Traced runs report measured
# times.
CALIBRATION_INTERVAL_S = 1.0  # operations shorter than this share a bracket


def _calibration_matrices():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4096, 3, 3)) + 1j * rng.standard_normal((4096, 3, 3))
    return m @ m.conj().transpose(0, 2, 1)


_CALIBRATION_MATRICES = _calibration_matrices()


def _scalar_kernel_s() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 6000):
        total += math.exp(-1.0 / i) * math.sqrt(i)
    for _ in range(2):
        np.linalg.eigvalsh(_CALIBRATION_MATRICES)
    return time.perf_counter() - start


def _batch_kernel_s() -> float:
    start = time.perf_counter()
    real = np.random.Generator(np.random.Philox(3)).standard_normal((1 << 16, 3, 3))
    (real + 1j * real) @ (real + 1j * real)
    return time.perf_counter() - start


# (kernel, its fastest time on a 2.0 GHz Xeon vCPU); workloads not in
# HOST_SCALED time the first one only to print it.
SCALAR_KERNEL = (_scalar_kernel_s, 0.012)
HOST_SCALED = {
    "config_scan": SCALAR_KERNEL,
    "mc_crosscheck": (_batch_kernel_s, 0.042),
}


class Pass:
    """One timed run of every operation of a workload.

    ``op_s`` and ``op_cpu_s`` are each operation's wall and process CPU
    time. Each operation's calibration bracket gives it two factors:
    ``op_scale``, ``kernel``'s nominal time over the fastest of three runs
    of it, and ``op_ran``, the share of the bracket's wall time left after
    taking out its stolen time averaged over the CPUs. Calibration runs
    between operations, outside their timings.
    """

    def __init__(self, ops, tracer=None, kernel=SCALAR_KERNEL):
        run_kernel, nominal_s = kernel

        def calibration_s():
            return min(run_kernel() for _ in range(3))

        self.attempted = len(ops)
        self.outputs: dict[str, str] = {}
        self.failures: list[Failure] = []
        self.commands = [op.argv is not None for op in ops]
        self.op_s: list[float] = []
        self.op_cpu_s: list[float] = []
        self.op_scale: list[float] = []
        self.op_ran: list[float] = []
        self.steal_s = 0.0
        self.calibrations = [calibration_s()]
        before = self.calibrations[0]
        since, steal_since = time.perf_counter(), host_steal_s()
        pending = 0
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            cpu0 = process_cpu()
            try:
                if tracer is not None and op.argv is not None:
                    with tracer.command(index):
                        self.outputs[op.key] = op.run()
                else:
                    self.outputs[op.key] = op.run()
            except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
                self.failures.append(Failure(op.key, "runs", f"{type(exc).__name__}: {exc}"))
            self.op_cpu_s.append(process_cpu() - cpu0)
            self.op_s.append(time.perf_counter() - t0)
            pending += 1
            if time.perf_counter() - since >= CALIBRATION_INTERVAL_S or index == len(ops) - 1:
                stolen = host_steal_s() - steal_since
                self.steal_s += stolen
                # The counter sums over the CPUs. In a 21 s pass of
                # ser_analytic it counted 16.6 s while the pass ran about
                # 9 s longer than on a calm host: close to the mean over the
                # two CPUs, which is what a bracket is charged.
                ran = max(0.0, 1.0 - stolen / (_CPUS * sum(self.op_s[-pending:])))
                after = calibration_s()
                self.calibrations.append(after)
                self.op_scale += [2.0 * nominal_s / (before + after)] * pending
                self.op_ran += [ran] * pending
                before, pending = after, 0
                since, steal_since = time.perf_counter(), host_steal_s()
        self.wall_s = sum(self.op_s)
        self.cpu_s = sum(self.op_cpu_s)

    def scaled(self, values) -> list[float]:
        return [v * s for v, s in zip(values, self.op_scale)]

    def run_s(self) -> list[float]:
        """Each operation's wall time less its share of the stolen time."""
        return [t * r for t, r in zip(self.op_s, self.op_ran)]

    def check(self, ops, reference, first=None, first_label=""):
        for op in ops:
            if op.key not in self.outputs:
                continue
            self.failures += op.check(op.key, self.outputs[op.key],
                                      reference.get(op.key, {}), self.outputs)
            if first is not None and first.outputs.get(op.key) != self.outputs[op.key]:
                self.failures.append(Failure(op.key, "identical", f"output differs from {first_label}"))

    def failed_ops(self) -> int:
        """Operations with a failed check; Monte-Carlo gate misses are
        reported apart (see ``workloads.Failure``)."""
        return len({f.op for f in self.failures if not f.statistical})

    def gate_misses(self) -> int:
        return sum(f.statistical for f in self.failures)


def metadata(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() if out.returncode == 0 else commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "mimomrc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip()
                             for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in _BLAS_ENV},
    }


def end_to_end_metrics(passes: list[Pass], setup: list[float], scaled: bool) -> dict:
    """Medians over the passes. Wall times leave out stolen time; with
    ``scaled``, times are then in seconds of a host at nominal speed (see
    ``HOST_SCALED``)."""
    n = len(passes)

    def walls_of(p):
        return p.scaled(p.run_s()) if scaled else p.run_s()

    walls = [sum(walls_of(p)) for p in passes]
    cpus = [sum(p.scaled(p.op_cpu_s) if scaled else p.op_cpu_s) for p in passes]
    # Per-command latency: each command's median over the passes, then the
    # median and tail over the workload's commands.
    per_pass = [[t for t, cmd in zip(walls_of(p), p.commands) if cmd] for p in passes]
    per_command = [1e3 * statistics.median(ts) for ts in zip(*per_pass)]
    tail_ms, tail_label = tail(per_command)
    how = "less stolen time" + (", scaled to nominal host speed" if scaled else "")
    return {
        "wall_s": (statistics.median(walls), "s", f"median of {n} passes, {how}: "
                   + ", ".join(f"{w:.3f}" for w in walls)
                   + "; measured " + ", ".join(f"{p.wall_s:.3f}" for p in passes)
                   + "; stolen " + ", ".join(f"{p.steal_s:.2f}" for p in passes)),
        "cpu_s": (statistics.median(cpus), "s", "user+sys, all threads, "
                  + ("scaled to nominal host speed" if scaled else "as measured") + "; measured "
                  + ", ".join(f"{p.cpu_s:.3f}" for p in passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB",
                        "process high-water mark"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports: "
                    + ", ".join(f"{s:.3f}" for s in setup)),
        "cmd_p50_ms": (statistics.median(per_command), "ms", f"median of {len(per_command)} "
                       f"commands, each the median of {n} passes, {how}"),
        "cmd_tail_ms": (tail_ms, "ms", f"{tail_label} commands, each the median of {n} passes, "
                        f"{how}"),
    }


# A pass of mc_crosscheck or ser_analytic takes 9-18 s on a 2-vCPU host, so
# a 30 s run could end after a single pass whenever the host is slow, and
# its metrics would rest on one sample of each operation.
MIN_PASSES = 2


def timed_passes(workload: str, seed: int, seconds: float, reference: dict) -> list[Pass]:
    """Repeat the workload, at least MIN_PASSES times and then while the
    next pass is expected to end within ``seconds``; every pass must
    reproduce the first one's outputs."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        ops = WORKLOADS[workload](seed)
        current = Pass(ops, kernel=HOST_SCALED.get(workload, SCALAR_KERNEL))
        current.check(ops, reference, passes[0] if passes else None, "pass 1")
        passes.append(current)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + current.wall_s > seconds):
            return passes


def traced_run(workload: str, seed: int, reference: dict) -> tuple[list[Pass], dict]:
    """One untraced and one traced pass; the traced outputs must be
    byte-identical to the untraced ones."""
    ops = WORKLOADS[workload](seed)
    untraced = Pass(ops)
    untraced.check(ops, reference)
    ops = WORKLOADS[workload](seed)
    tracer = Tracer()
    with tracer.installed():
        traced = Pass(ops, tracer)
    traced.check(ops, reference, untraced, "the untraced pass")

    pool = tracer.pool_spans()
    if any(s.command is None for s in pool):
        raise RuntimeError("a pool-thread span ran outside any cli.main call")
    print(f"traced outputs byte-identical to untraced: "
          f"{traced.outputs == untraced.outputs} ({len(traced.outputs)} outputs)")
    spans = tracer.spans()
    mains = [s for s in spans if s.name == "cli.main"]
    for s in mains if len(mains) <= 10 else []:
        busy = sum(p.wall for p in pool if p.command == s.command)
        print(f"cli.main #{s.command} ({ops[s.command].key}): wall {s.wall:.3f} s, "
              f"spans on its pool threads sum to {busy:.3f} s")
    calls = [[s.command, s.detail[1], s.detail[0], round(1e3 * s.wall, 3)]
             for s in spans if s.name == "performance.exact_ser"]
    if calls:
        print("exact_ser calls [command, snr_db, cdf evals, ms]: " + json.dumps(calls))
    draws = [[s.name, s.detail, round(s.wall, 3)] for s in spans
             if s.name.startswith("montecarlo.") and s.detail is not None]
    if draws:
        print("montecarlo calls [name, trials, s]: " + json.dumps(draws))
    metrics = layer_metrics(tracer, traced.wall_s, untraced.wall_s)
    metrics["montecarlo.gate_misses"] = (
        traced.gate_misses(), "count",
        f"Monte-Carlo outputs beyond {MC_GATE_SIGMAS:g} standard errors of the exact value")
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    setup = measure_setup()
    reference = load_reference()
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))

    seed_failures = warm_up(args.seed)
    if args.trace:
        passes, metrics = traced_run(args.workload, args.seed, reference)
    else:
        passes = timed_passes(args.workload, args.seed, args.seconds, reference)
        metrics = end_to_end_metrics(passes, setup, args.workload in HOST_SCALED)
        for i, p in enumerate(passes):
            print(f"pass {i + 1}: calibration kernel {1e3 * min(p.calibrations):.1f}-"
                  f"{1e3 * max(p.calibrations):.1f} ms over {len(p.calibrations)} timings; "
                  f"stolen {p.steal_s:.2f} s; "
                  "operation seconds " + json.dumps([round(t, 4) for t in p.op_s]))

    failures = seed_failures + [f for p in passes for f in p.failures]
    # The warm-up's seed-independence check counts as one operation.
    attempted = sum(p.attempted for p in passes) + 1
    failed = sum(p.failed_ops() for p in passes) + len(seed_failures)
    print(f"workload {args.workload}: {len(passes)} passes of {passes[0].attempted} operations, "
          f"seed {args.seed}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_frac = {failed / attempted!r} 1  ({failed} of {attempted} operations)")
    print(f"Monte-Carlo gate misses = {sum(p.gate_misses() for p in passes)} count  "
          f"(over {len(passes)} passes; not counted in failed)")
    for (op, check, detail, statistical), count in Counter(
            (f.op, f.check, f.detail, f.statistical) for f in failures).items():
        kind = "MISS [Monte-Carlo gate, not counted in failed]" if statistical else "FAIL [check]"
        print(f"{kind} {op} :: {check}: {detail}  (in {count} pass(es))")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
