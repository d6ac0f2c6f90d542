"""The benchmark's three closed-loop workloads and the loop that runs them.

A workload turns the workload seed into inputs (datasets, an input
file, per-call master seeds), runs operation `i` through the public API
or `dpboot.cli.main`, and checks each output without pinning its bytes,
so a later change that alters the bytes on purpose still passes.  The
program under test sees only the generated inputs and the derived
master seeds.

An operation returns a tuple of parts, one per library or CLI call.
Every operation of a workload does the same work: a mix of unequal
operations would put the median between two clusters of timings.

Operations call `equiv.compare` and `cli.main` through their module
attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import time

import numpy as np

from dpboot import (
    MEAN, Dataset, Method, RngStream, cli, dp0_posterior, equiv, equivalence_verdict,
    ks_critical, stick_break,
)

EPSILON = 1e-10  # the library's default truncation tolerance


class CheckFailed(Exception):
    """An operation's output broke the workload's output check."""


def op_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of operation `index`, a pure function of the workload seed."""
    text = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _require(ok: bool, reason: str):
    if not ok:
        raise CheckFailed(reason)


def _parse_floats(text: str, what: str) -> list:
    try:
        values = [float(line) for line in text.splitlines()]
    except ValueError:
        raise CheckFailed(f"{what}: not a number") from None
    _require(all(math.isfinite(v) for v in values), f"{what}: non-finite value")
    return values


class VerdictN25:
    """Calibrated `compare` calls at n=25 on two method pairs.

    One operation runs both pairs on one dataset: frequentist against
    dp-stickbreak (the shape of acceptance criterion 4), then polya-urn
    against dp-stickbreak-points (criterion 6).
    """

    name = "verdict-n25"
    PAIRS = (
        (Method.FREQUENTIST, Method.DP_STICK_BREAK),
        (Method.POLYA_URN, Method.DP_STICK_BREAK_POINTS),
    )

    def __init__(self, seed: int, workdir: str, n: int = 25, b: int = 2000, reps: int = 5,
                 datasets: int = 16):
        self.seed, self.b, self.reps, self.threads = seed, b, reps, 1
        rng = np.random.default_rng([seed, 1])
        self.datasets = [Dataset(rng.random(n)) for _ in range(datasets)]

    @property
    def replications_per_op(self) -> int:
        # Per compare: two cross ensembles and reps + 1 self ensembles.
        return len(self.PAIRS) * self.b * (2 + self.reps + 1)

    def inputs(self) -> bytes:
        return b"".join(d.values.tobytes() for d in self.datasets)

    def probe_datasets(self) -> list:
        return self.datasets

    def warmup(self):
        self.check(-1, self.run(-1))

    def run(self, i: int) -> tuple:
        data = self.datasets[i % len(self.datasets)]
        return tuple(
            equiv.compare(
                method_a, method_b, data, b=self.b, functional=MEAN,
                master_seed=op_seed(self.name, self.seed, len(self.PAIRS) * i + k),
                reps=self.reps, workers=1,
            )
            for k, (method_a, method_b) in enumerate(self.PAIRS)
        )

    @staticmethod
    def _render(report) -> bytes:
        rows = [report.cross, *report.self_baseline]
        lines = [f"{r.ks!r},{r.wasserstein1!r},{r.b}" for r in rows]
        lines.append(f"{report.threshold_factor!r},{report.verdict.value}")
        return ("\n".join(lines) + "\n").encode()

    def check(self, i: int, parts: tuple) -> bytes:
        _require(len(parts) == len(self.PAIRS), "one report per method pair")
        return b"".join(self._check_report(report) for report in parts)

    def _check_report(self, report) -> bytes:
        rows = [report.cross, *report.self_baseline]
        _require(len(report.self_baseline) == self.reps, "self baseline size")
        _require(all(r.b == self.b for r in rows), "replication count")
        _require(
            all(math.isfinite(r.ks) and math.isfinite(r.wasserstein1) for r in rows),
            "non-finite distance",
        )
        _require(report.self_ks_median > 0 and report.self_w1_median > 0, "self floor not positive")
        expected = equivalence_verdict(report.cross, report.self_baseline, report.threshold_factor)
        _require(report.verdict is expected, "verdict does not follow from the report fields")
        _require(report.cross.ks < ks_critical(1e-6, self.b, self.b), "cross KS beyond 1e-6 critical")
        return self._render(report)


class _CliWorkload:
    """Shared plumbing for workloads that call `cli.main` with an output file."""

    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.output = os.path.join(workdir, f"{self.name}.out")

    def _main(self, argv: list) -> bytes:
        # A call that writes nothing must not pass on the previous output.
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.output)
        status = cli.main(argv + ["--output", self.output])
        if status != 0:
            raise CheckFailed(f"exit status {status}")
        with open(self.output, "rb") as handle:
            return handle.read()


class Sweep(_CliWorkload):
    """`dpboot experiment` over an n grid with the median functional.

    The only workload that runs the replication thread pool.
    """

    name = "sweep"
    COLUMNS = "n,cross_ks,cross_w1,self_ks_median,self_w1_median,verdict"
    THRESHOLD = 2.0

    def __init__(self, seed: int, workdir: str, n_grid=(10, 25, 100, 400), b: int = 2000,
                 reps: int = 5, workers: int = 2):
        super().__init__(workdir)
        self.seed, self.n_grid, self.b, self.reps = seed, tuple(n_grid), b, reps
        self.threads = workers

    @property
    def replications_per_op(self) -> int:
        return len(self.n_grid) * self.b * (2 + self.reps + 1)

    def inputs(self) -> bytes:
        return b"".join(op_seed(self.name, self.seed, i).to_bytes(8, "little") for i in range(64))

    def probe_datasets(self) -> list:
        # The sweep synthesizes its datasets inside the program; these
        # have the same sizes and law.  Stick-breaking atom counts depend
        # on n and the stream only, not on the observed values.
        rng = np.random.default_rng([self.seed, 2])
        return [Dataset(rng.random(n)) for n in self.n_grid for _ in range(2)]

    def _argv(self, i: int, grid) -> list:
        return [
            "experiment", "--n-grid", ",".join(str(n) for n in grid),
            "--generator", "uniform:0,1", "--b", str(self.b), "--reps", str(self.reps),
            "--functional", "median", "--threshold", repr(self.THRESHOLD),
            "--workers", str(self.threads), "--seed", str(op_seed(self.name, self.seed, i)),
        ]

    def warmup(self):
        # One row at the smallest n: the same code path at a fraction of
        # the cost of a whole sweep.
        self._main(self._argv(-1, self.n_grid[:1]))

    def run(self, i: int) -> tuple:
        return (self._main(self._argv(i, self.n_grid)),)

    def check(self, i: int, parts: tuple) -> bytes:
        _require(len(parts) == 1, "one CSV per sweep")
        output = parts[0]
        lines = output.decode().splitlines()
        _require(bool(lines) and lines[0] == self.COLUMNS, "CSV header")
        rows = [line.split(",") for line in lines[1:]]
        _require(len(rows) == len(self.n_grid), "one row per n")
        for n, row in zip(self.n_grid, rows):
            _require(len(row) == 6, "CSV row width")
            _require(row[0] == str(n), "rows out of grid order")
            cross_ks, cross_w1, self_ks, self_w1 = _parse_floats("\n".join(row[1:5]), "sweep row")
            _require(self_ks > 0 and self_w1 > 0, "self floor not positive")
            same = cross_ks <= self.THRESHOLD * self_ks and cross_w1 <= self.THRESHOLD * self_w1
            _require(row[5] == ("indistinguishable" if same else "distinguishable"),
                     "verdict does not follow from the row")
        return output


class ResampleCli(_CliWorkload):
    """`dpboot resample` calls on an n=400 input file.

    One operation makes one call per method, in a fixed order.
    """

    name = "resample-cli"
    METHODS = ("frequentist", "bayesian", "dp-stickbreak", "dp-stickbreak-points", "polya-urn")
    WEIGHT_METHODS = ("bayesian", "dp-stickbreak")

    def __init__(self, seed: int, workdir: str, n: int = 400):
        super().__init__(workdir)
        self.seed, self.n, self.threads = seed, n, 1
        values = np.random.default_rng([seed, 3]).random(n)
        self.text = "".join(f"{v:.17g}\n" for v in values)
        self.support = frozenset(float(v) for v in self.text.split())
        self.input = os.path.join(workdir, f"{self.name}.in")
        with open(self.input, "w", encoding="utf-8") as handle:
            handle.write(self.text)

    replications_per_op = len(METHODS)

    def inputs(self) -> bytes:
        return self.text.encode()

    def probe_datasets(self) -> list:
        return [Dataset([float(v) for v in self.text.split()])]

    def warmup(self):
        self.check(-1, self.run(-1))

    def run(self, i: int) -> tuple:
        return tuple(
            self._main([
                "resample", "--input", self.input, "--method", method,
                "--seed", str(op_seed(self.name, self.seed, len(self.METHODS) * i + k)),
            ])
            for k, method in enumerate(self.METHODS)
        )

    def check(self, i: int, parts: tuple) -> bytes:
        _require(len(parts) == len(self.METHODS), "one output per method")
        for method, output in zip(self.METHODS, parts):
            values = _parse_floats(output.decode(), "resample output")
            _require(len(values) == self.n, "one line per observation")
            if method in self.WEIGHT_METHODS:
                _require(all(v >= 0 for v in values), "negative weight")
                _require(abs(math.fsum(values) - 1.0) <= 1e-12, "weights do not sum to 1")
            else:
                _require(self.support.issuperset(values), "point outside the input support")
        return b"".join(parts)


@dataclasses.dataclass
class Phase:
    """Operations run back to back by one caller."""

    seconds: list = dataclasses.field(default_factory=list)
    digests: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted


def _indices(seconds: float, max_ops):
    """Operation indices 0, 1, ...

    `max_ops` of them if given; otherwise none starts once `seconds`
    have passed, and the last one is left to finish.
    """
    begin = time.perf_counter()
    i = 0
    while (i < max_ops) if max_ops is not None else (i == 0 or time.perf_counter() - begin < seconds):
        yield i
        i += 1


def _run_op(workload, i: int, phase: Phase, mutate=None):
    """Run and check operation `i`, recording it in `phase`.

    `mutate(i, output)` may replace the output before its check (tests
    use it to corrupt outputs).  The operation fails if it raises or
    its check rejects it.
    """
    clock = time.perf_counter
    start = clock()
    try:
        output = workload.run(i)
    # argparse reports bad arguments with SystemExit.
    except (Exception, SystemExit) as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    phase.seconds.append(clock() - start)
    digest = None
    if output is not None:
        if mutate is not None:
            output = mutate(i, output)
        try:
            digest = _digest(workload.check(i, output))
        except CheckFailed as exc:
            error = f"check: {exc}"
    phase.digests.append(digest)
    if digest is None:
        phase.failures.append((i, error))


def measure(workload, seconds: float, max_ops=None, mutate=None) -> Phase:
    """Run operations 0, 1, ... back to back and check each output."""
    phase = Phase()
    for i in _indices(seconds, max_ops):
        _run_op(workload, i, phase, mutate)
    return phase


def measure_traced(workload, seconds: float, tracer, max_ops=None) -> tuple:
    """Run each operation untraced, then again with the tracer installed.

    Both runs of a pair see nearly the same machine state, and the order
    alternates from pair to pair, so their difference estimates the
    tracing overhead even when the machine's speed drifts.  Returns the
    untraced and the traced phase.
    """
    plain, traced = Phase(), Phase()
    for i in _indices(seconds, max_ops):
        if i % 2:
            _run_op(workload, i, plain)
        tracer.install()
        tracer.op = i
        try:
            _run_op(workload, i, traced)
        finally:
            tracer.op = -1
            tracer.uninstall()
        if not i % 2:
            _run_op(workload, i, plain)
    return plain, traced


WORKLOADS = {w.name: w for w in (VerdictN25, Sweep, ResampleCli)}


def stick_probe(workload, seed: int, draw=stick_break) -> list:
    """Eight public stick-breaking draws on each of the workload's datasets.

    Returns (n, atoms, residual) per draw: exact counts for a given seed.
    """
    out = []
    for k, data in enumerate(workload.probe_datasets()):
        posterior = dp0_posterior(data)
        for j in range(8):
            realized = draw(posterior, EPSILON, RngStream(op_seed("stick-probe", seed, k), j))
            out.append((len(data), len(realized), realized.residual))
    return out
