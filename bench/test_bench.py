"""Tests of the benchmark itself: determinism, output checks, seeds, contract.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

workloads = run._load_workloads()

from dpboot import DistanceReport, Verdict, cli, equiv, equivalence_verdict  # noqa: E402

# Scaled-down parameters so each test takes a second or two.
SMALL = {
    "verdict-n25": dict(b=200, reps=3, datasets=4),
    "sweep": dict(n_grid=(10, 25), b=200, reps=3, workers=1),
    "resample-cli": dict(n=40),
}


def make(name, seed, workdir, **overrides):
    return workloads.WORKLOADS[name](seed, str(workdir), **{**SMALL[name], **overrides})


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_digests(name, tmp_path):
    first, second = (
        workloads.measure(make(name, 5, tmp_path / tag), 0, max_ops=5).digests
        for tag in ("a", "b")
    )
    assert None not in first
    assert first == second


def test_sweep_digests_do_not_depend_on_workers(tmp_path):
    one, two = (
        workloads.measure(make("sweep", 5, tmp_path / str(w), workers=w), 0, max_ops=2).digests
        for w in (1, 2)
    )
    assert None not in one
    assert one == two


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_changes_inputs(name, tmp_path):
    inputs = [make(name, seed, tmp_path / str(k)).inputs() for k, seed in enumerate((1, 1, 2))]
    assert inputs[0] == inputs[1]
    assert inputs[0] != inputs[2]


def _flip(verdict):
    return Verdict.DISTINGUISHABLE if verdict is Verdict.INDISTINGUISHABLE else Verdict.INDISTINGUISHABLE


def _each(transform):
    """Corrupt every part of an operation's output."""
    return lambda i, parts: tuple(transform(part) for part in parts)


def _far_cross(report):
    # A cross distance past the KS critical value, verdict kept consistent.
    cross = DistanceReport(0.9, report.cross.wasserstein1, report.cross.b)
    verdict = equivalence_verdict(cross, report.self_baseline, report.threshold_factor)
    return dataclasses.replace(report, cross=cross, verdict=verdict)


def _lines(transform, part=None):
    """Corrupt the lines of every part, or of part number `part` only."""
    def mutate(output):
        lines = output.decode().splitlines()
        return ("\n".join(transform(lines)) + "\n").encode()
    if part is None:
        return _each(mutate)
    return lambda i, parts: tuple(mutate(p) if k == part else p for k, p in enumerate(parts))


def _flip_first_row(lines):
    cells = lines[1].split(",")
    cells[-1] = "distinguishable" if cells[-1] == "indistinguishable" else "indistinguishable"
    return [lines[0], ",".join(cells), *lines[2:]]


CORRUPTIONS = [
    ("verdict-n25", "verdict does not follow",
     _each(lambda r: dataclasses.replace(r, verdict=_flip(r.verdict)))),
    ("verdict-n25", "non-finite distance",
     _each(lambda r: dataclasses.replace(r, cross=DistanceReport(math.nan, 0.1, r.cross.b)))),
    ("verdict-n25", "self floor not positive",
     _each(lambda r: dataclasses.replace(r, self_baseline=(DistanceReport(0.0, 0.0, r.cross.b),) * 3))),
    ("verdict-n25", "cross KS beyond", _each(_far_cross)),
    ("verdict-n25", "one report per method pair", lambda i, parts: parts[:1]),
    ("sweep", "CSV header", _lines(lambda lines: ["n,ks", *lines[1:]])),
    ("sweep", "one row per n", _lines(lambda lines: lines[:-1])),
    ("sweep", "grid order", _lines(lambda lines: [lines[0], lines[2], lines[1]])),
    ("sweep", "verdict does not follow", _lines(_flip_first_row)),
    ("resample-cli", "one line per observation", _lines(lambda lines: lines[:-1])),
    ("resample-cli", "one output per method", lambda i, parts: parts[1:]),
    ("resample-cli", "outside the input support", _lines(lambda lines: ["2.5", *lines[1:]])),
    # Part 1 is the bayesian weight vector.
    ("resample-cli", "do not sum to 1",
     _lines(lambda lines: [repr(float(lines[0]) + 1e-9), *lines[1:]], part=1)),
    ("resample-cli", "negative weight", _lines(lambda lines: ["-0.0001", *lines[1:]], part=1)),
]


@pytest.mark.parametrize("name, reason, mutate", CORRUPTIONS,
                         ids=[f"{w}-{r}" for w, r, _ in CORRUPTIONS])
def test_checks_reject_corrupted_output(name, reason, mutate, tmp_path):
    phase = workloads.measure(make(name, 3, tmp_path), 0, max_ops=5, mutate=mutate)
    assert phase.failed_frac == 1.0
    assert any(reason in message for _, message in phase.failures)


def test_a_call_that_writes_nothing_fails(tmp_path, monkeypatch):
    # A sweep's previous CSV would pass the check; it must not be read.
    workload = make("sweep", 3, tmp_path)
    assert workloads.measure(workload, 0, max_ops=1).failed_frac == 0.0
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    assert workloads.measure(workload, 0, max_ops=1).failed_frac == 1.0


def test_tail_names_the_percentile():
    assert run.tail([float(k) for k in range(1, 31)]) == (27.0, 90.0, 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 90.0, 0)
    assert run.tail([5.0]) == (5.0, 90.0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "cli.main", 0, 0.0, 10.0, None),
        (2, 1, "x", 0, 1.0, 4.0, None),
        (3, 1, "x", 0, 2.0, 5.0, None),  # overlaps its sibling, as on a pool
        (4, 1, "x", 0, 8.0, 12.0, None),  # runs past the parent's end
    ]
    assert tracing.self_times(spans) == {1: 10.0 - 4.0 - 2.0}


def test_traced_run_counts_and_leaves_outputs_unchanged(tmp_path):
    workload = make("verdict-n25", 4, tmp_path)
    original = equiv.make_ensemble
    plain, traced, tracer, metrics = run.traced_run(workloads, workload, 4, 0, max_ops=2)
    assert equiv.make_ensemble is original
    assert plain.digests == traced.digests and None not in plain.digests
    b, reps = SMALL["verdict-n25"]["b"], SMALL["verdict-n25"]["reps"]
    # Two compares per operation, each with 2 cross and reps + 1 self ensembles.
    assert metrics["resample.replications_per_op"] == workload.replications_per_op == 2 * b * (reps + 3)
    assert metrics["core.generator.calls"] == 2 * b * (reps + 3)
    assert metrics["core.apply_functional.calls"] == 2 * b * (reps + 3)
    assert metrics["equiv.distance_calls_per_op"] == 2 * (reps + 1)
    assert 0 < metrics["dp.stick_break.residual_max"] < workloads.EPSILON
    assert metrics["failed_frac"] == 0
    assert {s[2] for s in tracer.spans} >= {"equiv.compare", "resample.make_ensemble"}


def _bench(cwd, *args):
    argv = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    done = _bench(run.ROOT, "--workload", "resample-cli", "--held-out", "--seconds", "0.5",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(os.path.join(run.HERE, name), tmp_path / "bench")
    done = _bench(tmp_path, "--workload", "verdict-n25", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_held_out_seed_differs_from_default():
    assert run._parse_args(["--workload", "sweep", "--held-out"]).seed == run.HELD_OUT_SEED
    assert run._parse_args(["--workload", "sweep"]).seed == run.DEFAULT_SEED != run.HELD_OUT_SEED
