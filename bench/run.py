"""Seeded benchmark of dpboot: three closed-loop workloads, one caller each.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verdict-n25 --seed 1 --seconds 30 --trace 0

Workloads (see bench/workloads.py and BENCHMARK.json for why each one):

    verdict-n25    calibrated `compare` at n=25, B=2000, reps=5, mean
    sweep          `dpboot experiment` over n = 10,25,100,400, median, 2 workers
    resample-cli   one `dpboot resample` call per operation on n=400

The run imports dpboot from `src/` of the same checkout, generates the
inputs from `--seed`, runs one warm-up operation, then runs operations
back to back for `--seconds` and checks every output.  `--trace 0`
reports the end-to-end metrics of BENCHMARK.json; `--trace 1` runs each
operation twice, untraced and then traced, and reports the per-layer
metrics, including the tracing overhead.  `--held-out` uses a
seed kept apart for re-checking a claimed gain.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A full report (provenance, every
operation's duration and output digest) goes to bench/out/, and the
traced run's spans to bench/out/spans-*.csv.
"""

from __future__ import annotations

import argparse
import dataclasses
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7_340_033  # never used while a change is written
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this

# Per-layer metrics that are exact counts for a given seed: a change to
# B, reps or seeds shows up here rather than as a speed-up.
COUNTS = (
    "core.generator.calls", "core.apply_functional.calls", "resample.replications_per_op",
    "equiv.distance_calls_per_op", "dp.stick_break.atoms_p50", "dp.stick_break.atoms_max",
    "dp.stick_break.residual_max",
)


def _load_workloads():
    if not os.path.isfile(os.path.join(SRC, "dpboot", "__init__.py")):
        raise SystemExit(f"bench: no dpboot sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    import dpboot

    if os.path.dirname(os.path.dirname(os.path.abspath(dpboot.__file__))) != SRC:
        raise SystemExit(f"bench: dpboot was imported from {dpboot.__file__}, not {SRC}")
    return workloads


def setup(name: str, seed: int, workdir: str):
    """Import, generate the inputs and run one warm-up operation.

    Returns the workloads module, the workload and the seconds taken.
    """
    start = time.perf_counter()
    workloads = _load_workloads()
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warmup()
    return workloads, workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so the import counts."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


TAIL_PERCENTILE = 90.0


def tail(seconds: list):
    """Nearest-rank TAIL_PERCENTILE of the operation times.

    Returns (value, percentile, samples beyond it).  The percentile is
    fixed: the highest one with ten samples beyond it would fall
    below the median for the three or four operations of a sweep run,
    and for the 1,500 of a resample-cli run (p99.3) it spread 36% from
    run to run on a shared 2-vCPU virtual machine.
    """
    ordered = sorted(seconds)
    rank = max(math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1, 0)
    return ordered[rank], TAIL_PERCENTILE, len(ordered) - 1 - rank


def end_to_end(workload, phase, setup_s: float) -> dict:
    busy = sum(phase.seconds)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(phase.seconds) * 1e3,
        "op_tail_ms": tail(phase.seconds)[0] * 1e3,
        "ops_per_s": phase.attempted / busy,
        "replications_per_s": workload.replications_per_op * phase.attempted / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workloads, workload, seed: int, seconds: float, max_ops=None):
    """Paired untraced and traced runs of the same operations, and the stick probe."""
    import tracing
    from dpboot import stick_break

    tracer = tracing.Tracer()
    plain, traced = workloads.measure_traced(workload, seconds, tracer, max_ops)
    probe = workloads.stick_probe(workload, seed, tracer.wrapper(stick_break, "dp.stick_break"))
    metrics = tracing.per_layer(tracer.spans, traced.seconds, probe)
    overhead = statistics.median(t - p for p, t in zip(plain.seconds, traced.seconds))
    metrics["trace.overhead_ms"] = overhead * 1e3
    failed = len(plain.failures) + len(traced.failures)
    metrics["failed_frac"] = failed / (plain.attempted + traced.attempted)
    return plain, traced, tracer, metrics


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _cpu_ticks() -> tuple:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:]
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref)).strip()
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(workload, seed: int) -> dict:
    import numpy

    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        None,
    )
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        field = lambda f: _read(os.path.join(cache_dir, index, f)).strip()  # noqa: E731
        if field("size"):
            caches.append(f"L{field('level')} {field('type')} {field('size')}")
    os_threads = next(
        (int(line.split()[1]) for line in _read("/proc/self/status").splitlines()
         if line.startswith("Threads:")),
        None,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "workload_threads": workload.threads,
        "process_threads": os_threads,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded dpboot benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=("verdict-n25", "sweep", "resample-cli"))
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seeds.add_argument("--held-out", action="store_true",
                       help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_s = setup(args.workload, args.seed, os.path.join(OUT, "probe"))[2]
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workloads, workload, first_setup = setup(args.workload, args.seed, os.path.join(OUT, "work"))
    setups = [first_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "config": {k: v for k, v in vars(workload).items() if isinstance(v, (int, tuple))},
        "provenance": provenance(workload, args.seed),
        "setup_s": setups,
    }

    steal_before, total_before = _cpu_ticks()
    if args.trace:
        plain, traced, tracer, metrics = traced_run(
            workloads, workload, args.seed, args.seconds)
        phases = {"untraced": plain, "traced": traced}
        # Tracing must not change what the program computes.
        consistent = plain.digests == traced.digests
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
        report["counts"] = {k: metrics[k] for k in COUNTS}
        wanted = spec["per_layer"]
    else:
        plain = workloads.measure(workload, args.seconds)
        phases = {"untraced": plain}
        consistent = True
        metrics = end_to_end(workload, plain, statistics.median(setups))
        _, percentile, beyond = tail(plain.seconds)
        report["op_tail"] = {"percentile": percentile, "beyond": beyond, "samples": plain.attempted}
        wanted = spec["end_to_end"]
    steal_after, total_after = _cpu_ticks()
    # Time the hypervisor gave to other guests: a noisy-neighbour gauge.
    report["steal_share"] = (steal_after - steal_before) / max(total_after - total_before, 1)

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(len(p.failures) for p in phases.values())
    report["phases"] = {k: dataclasses.asdict(p) for k, p in phases.items()}
    report["run_digest"] = hashlib.sha256(
        "".join(str(d) for d in plain.digests).encode()).hexdigest()[:16]
    report["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    summary = {k: report.get(k) for k in (
        "workload", "provenance", "setup_s", "steal_share", "run_digest", "op_tail", "counts")}
    summary["failures"] = [f for p in phases.values() for f in p.failures][:5]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
