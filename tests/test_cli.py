import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dpboot import Dataset, RngStream, atom_masses, dp0_posterior, ecdf_build, stick_break
from dpboot import cli
from dpboot.cli import build_parser, main


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "data.txt"
    values = np.random.default_rng(42).random(25)
    path.write_text("".join(f"{v:.17g}\n" for v in values))
    return str(path)


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


# ---------------------------------------------------------------------------
# resample


def test_resample_single_value(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("7.0\n")
    assert main(["resample", "--input", str(path), "--method", "frequentist"]) == 0
    assert capsys.readouterr().out == "7\n"


def test_resample_is_byte_deterministic(tmp_path, sample_file):
    for method in ("frequentist", "bayesian", "dp-stickbreak", "dp-stickbreak-points", "polya-urn"):
        argv = ["resample", "--input", sample_file, "--method", method, "--seed", "9"]
        _, first = _run_to_file(tmp_path, f"{method}-1.txt", argv)
        _, second = _run_to_file(tmp_path, f"{method}-2.txt", argv)
        assert first == second


def test_resample_bayesian_weights_sum_to_one(tmp_path, sample_file, capsys):
    assert main(["resample", "--input", sample_file, "--method", "bayesian", "--seed", "3"]) == 0
    weights = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(weights) == 25
    assert all(w > 0 for w in weights)
    assert abs(sum(weights) - 1.0) <= 1e-12


def test_resample_stick_weights_sum_to_one(tmp_path, capsys):
    # Ties split their value's mass equally across input lines.
    path = tmp_path / "tied.txt"
    path.write_text("1.0\n2.0\n2.0\n4.0\n")
    assert main(["resample", "--input", str(path), "--method", "dp-stickbreak", "--seed", "4"]) == 0
    weights = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(weights) == 4
    assert abs(sum(weights) - 1.0) <= 1e-12
    assert weights[1] == weights[2]


@pytest.mark.parametrize("seed", [0, 4, 17])
def test_resample_stick_weights_split_atom_masses_over_tied_lines(tmp_path, capsys, seed):
    # Oracle: the realized measure's mass on each distinct value, split
    # equally over the input lines holding that value.
    values = [2.0, 1.0, 2.0, 4.0, 1.0, 2.0, 3.5]
    path = tmp_path / "tied.txt"
    path.write_text("".join(f"{v!r}\n" for v in values))
    argv = ["resample", "--input", str(path), "--method", "dp-stickbreak", "--seed", str(seed)]
    assert main(argv) == 0
    data = Dataset(values)
    ecdf = ecdf_build(data)
    measure = stick_break(dp0_posterior(data), 1e-10, RngStream(seed, 0))
    line = np.searchsorted(ecdf.values, data.values)
    expected = atom_masses(measure, ecdf.values)[line] / ecdf.counts[line]
    assert capsys.readouterr().out == "".join(f"{v:.17g}\n" for v in expected)


def test_epsilon_flag_is_a_usage_error(sample_file, capsys):
    # Every command truncates at 1e-10; no command takes a tolerance.
    for command in (
        ["resample", "--input", sample_file, "--method", "dp-stickbreak"],
        ["compare", "--input", sample_file, "--method-a", "frequentist",
         "--method-b", "dp-stickbreak", "--b", "50"],
        ["experiment", "--n-grid", "10", "--generator", "uniform:0,1", "--b", "50"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--epsilon", "1e-10"])
        assert exc.value.code == 2
        assert "--epsilon" in capsys.readouterr().err


def test_resample_points_stay_in_support(tmp_path, sample_file, capsys):
    values = {float(line) for line in open(sample_file) if line.strip()}
    for method in ("frequentist", "dp-stickbreak-points", "polya-urn"):
        assert main(["resample", "--input", sample_file, "--method", method, "--seed", "5"]) == 0
        out = [float(line) for line in capsys.readouterr().out.splitlines()]
        assert len(out) == 25
        assert set(out) <= values


def test_resample_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1.0\n# comment\n\n2.0\n"))
    assert main(["resample", "--input", "-", "--method", "frequentist", "--seed", "1"]) == 0
    out = [float(line) for line in capsys.readouterr().out.splitlines()]
    assert len(out) == 2 and set(out) <= {1.0, 2.0}


def test_resample_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["resample", "--input", missing, "--method", "frequentist"]) == 2
    assert "nope.txt" in capsys.readouterr().err

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\npotato\n")
    assert main(["resample", "--input", str(bad), "--method", "frequentist"]) == 2
    assert "line 2" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["resample", "--input", str(bad), "--method", "jackknife"])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "command",
    [
        ["resample", "--method", "frequentist"],
        ["compare", "--method-a", "frequentist", "--method-b", "dp-stickbreak", "--b", "50"],
        ["experiment", "--n-grid", "10", "--generator", "uniform:0,1", "--b", "50"],
    ],
)
def test_seed_outside_u64_exits_2(sample_file, capsys, command, seed):
    inputs = [] if command[0] == "experiment" else ["--input", sample_file]
    assert main(command + inputs + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unsigned 64-bit" in captured.err


# ---------------------------------------------------------------------------
# posterior


def test_posterior_conjugate_json(tmp_path, capsys):
    path = tmp_path / "three.txt"
    path.write_text("1.0\n2.0\n3.0\n")
    assert main(["posterior", "--input", str(path), "--alpha", "2", "--base", "normal:0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha_posterior"] == 5.0
    assert payload["n"] == 3
    weights = [entry["weight"] for entry in payload["mixture"]]
    components = [entry["component"] for entry in payload["mixture"]]
    assert weights == [0.4, 0.6]
    assert components == ["normal(0,1)", "empirical"]

    assert main(["posterior", "--input", str(path), "--alpha", "2", "--base", "uniform:0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["component"] for entry in payload["mixture"]] == ["uniform(0,1)", "empirical"]

    # Parameters that six significant digits would round are printed in full.
    for base, label in (("normal:0.1234567,1e-7", "normal(0.1234567,1e-07)"),
                        ("uniform:-2.5,1234567", "uniform(-2.5,1234567.0)")):
        assert main(["posterior", "--input", str(path), "--alpha", "2", "--base", base]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["component"] for entry in payload["mixture"]] == [label, "empirical"]


def test_posterior_weak_limit_route(tmp_path, capsys):
    path = tmp_path / "four.txt"
    path.write_text("1\n2\n3\n4\n")
    # -0.0 is the weak limit too, and a base given with alpha 0 is
    # parsed but has no weight in the limit.
    for extra in ([], ["--base", "none"], ["--base", "normal:0,1"]):
        for alpha in ("0", "-0.0"):
            assert main(["posterior", "--input", str(path), "--alpha", alpha] + extra) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload == {
                "alpha_posterior": 4.0,
                "mixture": [{"weight": 1.0, "component": "empirical"}],
                "n": 4,
            }


def test_posterior_errors(tmp_path, capsys):
    path = tmp_path / "data.txt"
    path.write_text("1.0\n")
    assert main(["posterior", "--input", str(path), "--alpha", "2", "--base", "none"]) == 2
    assert "a base measure is required" in capsys.readouterr().err

    assert main(["posterior", "--input", str(path), "--alpha", "-1"]) == 2
    capsys.readouterr()

    assert main(["posterior", "--input", str(path), "--alpha", "1", "--base", "cauchy:0,1"]) == 2
    capsys.readouterr()

    assert main(["posterior", "--input", str(path), "--alpha", "1", "--base", "normal:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpboot: bad base measure: 'normal:1' (expected KIND:A,B)\n"

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert main(["posterior", "--input", str(empty), "--alpha", "0"]) == 2
    capsys.readouterr()

    for alpha in ("nan", "inf"):
        for base in ([], ["--base", "normal:0,1"]):
            assert main(["posterior", "--input", str(path), "--alpha", alpha] + base) == 2
            assert "alpha" in capsys.readouterr().err

    # A malformed base is rejected even where alpha = 0 makes it unused.
    assert main(["posterior", "--input", str(path), "--alpha", "0", "--base", "normal:0,-1"]) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# compare


def test_compare_csv_schema_and_determinism(tmp_path, sample_file):
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "dp-stickbreak",
        "--b", "300", "--seed", "7",
    ]
    code, first = _run_to_file(tmp_path, "cmp1.csv", argv)
    assert code == 0
    _, second = _run_to_file(tmp_path, "cmp2.csv", argv)
    assert first == second

    header, row = first.decode().splitlines()
    assert header == (
        "method_a,method_b,n,b,functional,cross_ks,cross_w1,"
        "self_ks_median,self_w1_median,threshold,verdict"
    )
    cells = row.split(",")
    assert cells[0] == "frequentist" and cells[1] == "dp-stickbreak"
    assert cells[2] == "25" and cells[3] == "300" and cells[4] == "mean"
    assert 0.0 <= float(cells[5]) <= 1.0
    assert float(cells[6]) >= 0.0
    assert cells[10] in ("indistinguishable", "distinguishable")


def test_compare_parallelism_does_not_change_bytes(tmp_path, sample_file):
    base = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "bayesian",
        "--b", "200", "--seed", "8",
    ]
    _, solo = _run_to_file(tmp_path, "w1.csv", base + ["--workers", "1"])
    _, pooled = _run_to_file(tmp_path, "w2.csv", base + ["--workers", "3"])
    assert solo == pooled


@pytest.mark.parametrize("command", ["compare", "experiment"])
def test_workers_flag_is_hidden(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = capsys.readouterr().out
    assert "--seed" in help_text
    assert "--workers" not in help_text


def test_replications_start_no_threads(tmp_path, sample_file, monkeypatch):
    import threading

    from dpboot import MEAN, Method, make_ensemble

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ens = make_ensemble(Method.FREQUENTIST, Dataset([1.0, 2.0, 4.0]), 50, MEAN)
    assert ens.shape == (50,)
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "bayesian",
        "--b", "100", "--workers", "3",
    ]
    assert _run_to_file(tmp_path, "threads.csv", argv)[0] == 0


def test_compare_json_mirrors_csv(tmp_path, sample_file, capsys):
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "frequentist",
        "--b", "200", "--seed", "9", "--format", "json",
        "--functional", "q:0.25",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["functional"] == "q:0.25"
    assert payload["n"] == 25 and payload["b"] == 200
    assert set(payload) == {
        "method_a", "method_b", "n", "b", "functional", "cross_ks", "cross_w1",
        "self_ks_median", "self_w1_median", "threshold", "verdict",
    }


def test_compare_prints_quantile_levels_losslessly(sample_file, capsys):
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "bayesian",
        "--b", "50", "--reps", "3", "--functional", "q:0.9999999",
    ]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split(",")[4] == "q:0.9999999"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_compare_rejects_non_finite_threshold(sample_file, capsys, threshold):
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "dp-stickbreak",
        "--b", "50", f"--threshold={threshold}",
    ]
    assert main(argv) == 2
    assert "threshold" in capsys.readouterr().err


def test_compare_rejects_unknown_functional(tmp_path, sample_file, capsys):
    argv = [
        "compare", "--input", sample_file,
        "--method-a", "frequentist", "--method-b", "frequentist",
        "--b", "50", "--functional", "mode",
    ]
    assert main(argv) == 2
    assert "functional" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_single_row(tmp_path, capsys):
    assert main([
        "experiment", "--n-grid", "25", "--generator", "uniform:0,1",
        "--b", "200", "--seed", "3",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "n,cross_ks,cross_w1,self_ks_median,self_w1_median,verdict"
    assert lines[1].split(",")[0] == "25"


def test_experiment_grid_order_and_determinism(tmp_path):
    argv = [
        "experiment", "--n-grid", "10,25,40", "--generator", "normal:0,1",
        "--b", "150", "--seed", "4",
    ]
    code, first = _run_to_file(tmp_path, "exp1.csv", argv)
    assert code == 0
    _, second = _run_to_file(tmp_path, "exp2.csv", argv)
    assert first == second
    lines = first.decode().splitlines()
    assert len(lines) == 4
    sizes = [int(line.split(",")[0]) for line in lines[1:]]
    assert sizes == [10, 25, 40]


def test_experiment_errors(capsys):
    assert main([
        "experiment", "--n-grid", "10;20", "--generator", "uniform:0,1", "--b", "50",
    ]) == 2
    capsys.readouterr()
    assert main([
        "experiment", "--n-grid", "20,10", "--generator", "uniform:0,1", "--b", "50",
    ]) == 2
    capsys.readouterr()
    assert main([
        "experiment", "--n-grid", "10", "--generator", "lognormal:0,1", "--b", "50",
    ]) == 2


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_experiment_rejects_non_finite_threshold(capsys, threshold):
    assert main([
        "experiment", "--n-grid", "10", "--generator", "uniform:0,1", "--b", "50",
        "--threshold", threshold,
    ]) == 2
    assert "threshold" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One parser per process


def test_parser_is_built_once_per_process(monkeypatch, sample_file, capsys):
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for seed in ("1", "2", "3"):
            argv = ["resample", "--input", sample_file, "--method", "bayesian", "--seed", seed]
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()  # drop the parser built under the patch
    assert len(builds) == 1
    assert len(capsys.readouterr().out.splitlines()) == 3 * 25


def test_shared_parser_keeps_no_state_between_calls(tmp_path, sample_file, capsys):
    argv = ["resample", "--input", sample_file, "--method", "dp-stickbreak-points", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["resample", "--input", sample_file, "--method", "jackknife"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

    missing = str(tmp_path / "nope.txt")
    assert main(["resample", "--input", missing, "--method", "bayesian"]) == 2
    assert capsys.readouterr().err.startswith("dpboot: cannot read")

    assert main(argv) == 0
    again = capsys.readouterr()
    assert (again.out, again.err) == (first.out, "")
    done = _run_module(argv)
    assert done.returncode == 0 and done.stdout == first.out.encode()


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------------------
# `python -m dpboot.cli` as a real process: the exit status reaches the shell


def _run_module(args):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "dpboot.cli", *args], capture_output=True, env=env, timeout=120
    )


def test_module_entry_point_exit_status(tmp_path, sample_file, capsys):
    argv = ["resample", "--input", sample_file, "--method", "dp-stickbreak", "--seed", "5"]
    done = _run_module(argv)
    assert done.returncode == 0 and done.stderr == b""
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode()

    missing = str(tmp_path / "nope.txt")
    failed = _run_module(["resample", "--input", missing, "--method", "bayesian"])
    assert failed.returncode == 2 and failed.stdout == b""
    assert failed.stderr.decode().startswith("dpboot: cannot read")
