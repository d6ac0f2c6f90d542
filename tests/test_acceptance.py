"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
The Monte Carlo criteria are seeded and deterministic; the whole module
runs in a few minutes, dominated by the two 100-seed verdict loops.
"""

import math

import numpy as np

from dpboot import (
    Dataset,
    DPParams,
    EmpiricalCDF,
    MEAN,
    Method,
    NormalBase,
    RngStream,
    UniformBase,
    Verdict,
    atom_masses,
    bayesian_bootstrap_weights,
    compare,
    conjugate_update,
    convergence_experiment,
    derive_seed,
    dp0_posterior,
    ecdf_build,
    ks_critical,
    ks_two_sample,
    stick_break,
    wasserstein1,
)
from dpboot.cli import main


def _report(num: int, title: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}")
    return ok


def _uniform_dataset(seed: int, n: int) -> Dataset:
    return Dataset(RngStream(seed, 0).generator().random(n))


def test_criterion_1_conjugate_exactness():
    post = conjugate_update(DPParams(2.0, NormalBase(0.0, 1.0)), Dataset([1.0, 2.0, 3.0]))
    (w_prior, _), (w_data, _) = post.base.components
    ok = (
        post.alpha == 5.0
        and abs(w_prior - 0.4) <= 1e-15
        and abs(w_data - 0.6) <= 1e-15
    )
    assert _report(1, "conjugate update is exact at alpha=2, n=3", ok)


def test_criterion_2_weak_limit_agreement():
    data = _uniform_dataset(11, 8)
    limit = dp0_posterior(data)
    approx = conjugate_update(DPParams(1e-9, NormalBase(0.0, 1.0)), data)
    w_prior, w_emp = (w for w, _ in approx.base.components)
    ok = (
        limit.alpha == float(len(data))
        and isinstance(limit.base, EmpiricalCDF)
        and abs(approx.alpha - limit.alpha) <= 1e-5
        and abs(w_emp - 1.0) <= 1e-5
        and abs(w_prior) <= 1e-5
    )
    assert _report(2, "weak-limit posterior matches tiny-alpha conjugate update", ok)


def test_criterion_3_posterior_mass_law():
    n, reps = 25, 5000
    data = _uniform_dataset(42, n)
    posterior = dp0_posterior(data)
    grid = ecdf_build(data).values
    first_atom = int(np.searchsorted(grid, data.values[0]))

    masses = np.empty(reps)
    for i in range(reps):
        measure = stick_break(posterior, 1e-10, RngStream(99, i))
        masses[i] = atom_masses(measure, grid)[first_atom]

    def beta_cdf(x, b=n - 1):
        return 1.0 - (1.0 - min(max(x, 0.0), 1.0)) ** b

    crit = ks_critical(0.01, reps)
    d_stick = _exact_one_sample_ks(masses, beta_cdf)

    first_weights = np.array(
        [bayesian_bootstrap_weights(n, RngStream(123, i))[0] for i in range(reps)]
    )
    d_weights = _exact_one_sample_ks(first_weights, beta_cdf)

    ok = d_stick < crit and d_weights < crit
    assert _report(
        3,
        f"posterior masses follow Beta(1, {n - 1}) "
        f"(stick D={d_stick:.4f}, dirichlet D={d_weights:.4f}, crit={crit:.4f})",
        ok,
    )


def _exact_one_sample_ks(sample, cdf):
    xs = np.sort(sample)
    f = np.array([cdf(x) for x in xs])
    steps = np.arange(1, xs.size + 1) / xs.size
    return max(float((steps - f).max()), float((f - steps + 1.0 / xs.size).max()))


def _verdict_trials(method_a: Method, method_b: Method, seeds: int = 100) -> int:
    wins = 0
    for s in range(seeds):
        data = Dataset(RngStream(derive_seed(s, 101), 0).generator().random(25))
        report = compare(
            method_a,
            method_b,
            data,
            b=2000,
            functional=MEAN,
            epsilon=1e-10,
            master_seed=derive_seed(s, 202),
            threshold_factor=2.0,
            reps=5,
        )
        wins += report.verdict is Verdict.INDISTINGUISHABLE
    return wins


def test_criterion_4_small_sample_equivalence():
    wins = _verdict_trials(Method.FREQUENTIST, Method.DP_STICK_BREAK)
    ok = wins >= 90
    assert _report(
        4,
        f"frequentist vs stick-breaking indistinguishable at n=25 in {wins}/100 seeds",
        ok,
    )


def test_criterion_5_convergence_trend():
    rows = convergence_experiment(
        [10, 25, 100, 400], UniformBase(0.0, 1.0), b=2000, functional=MEAN, master_seed=2024
    )
    first, last = rows[0], rows[-1]
    ks_ok = last.cross_ks <= first.cross_ks + 2.0 * first.self_ks_median
    w1_ok = last.cross_w1 <= first.cross_w1 + 2.0 * first.self_w1_median
    ok = ks_ok and w1_ok
    assert _report(
        5,
        "cross distances do not grow from n=10 to n=400 "
        f"(ks {first.cross_ks:.4f}->{last.cross_ks:.4f}, "
        f"w1 {first.cross_w1:.5f}->{last.cross_w1:.5f})",
        ok,
    )


def test_criterion_6_sampler_cross_check():
    wins = _verdict_trials(Method.POLYA_URN, Method.DP_STICK_BREAK_POINTS)
    ok = wins >= 90
    assert _report(
        6,
        f"urn vs stick+IID sampling indistinguishable at n=25 in {wins}/100 seeds",
        ok,
    )


def test_criterion_7_metric_oracles():
    exact_ok = (
        ks_two_sample([1.0, 3.0], [2.0, 4.0]) == 0.5
        and wasserstein1([0.0, 1.0], [1.0, 2.0]) == 1.0
    )

    b, pairs = 500, 1000
    crit = ks_critical(0.01, b, b)
    exceed = 0
    for i in range(pairs):
        gen = RngStream(7, i).generator()
        if ks_two_sample(gen.standard_normal(b), gen.standard_normal(b)) > crit:
            exceed += 1
    rate = exceed / pairs
    band = 3 * math.sqrt(0.01 * 0.99 / pairs)
    rate_ok = abs(rate - 0.01) <= band
    ok = exact_ok and rate_ok
    assert _report(
        7,
        f"metric oracles exact; null KS exceedance {rate:.3f} within 0.01 +/- {band:.4f}",
        ok,
    )


def test_criterion_8_cli_determinism(tmp_path):
    data_path = tmp_path / "data.txt"
    values = RngStream(2718, 0).generator().random(25)
    data_path.write_text("".join(f"{v:.17g}\n" for v in values))

    def run(name, argv):
        out = tmp_path / name
        assert main(argv + ["--output", str(out)]) == 0
        return out.read_bytes()

    ok = True
    for method in ("frequentist", "bayesian", "dp-stickbreak", "dp-stickbreak-points", "polya-urn"):
        argv = ["resample", "--input", str(data_path), "--method", method, "--seed", "31"]
        ok = ok and run(f"r1-{method}", argv) == run(f"r2-{method}", argv)

    argv = ["posterior", "--input", str(data_path), "--alpha", "2", "--base", "normal:0,1"]
    ok = ok and run("p1", argv) == run("p2", argv)

    argv = [
        "compare", "--input", str(data_path),
        "--method-a", "frequentist", "--method-b", "dp-stickbreak",
        "--b", "250", "--seed", "17",
    ]
    twice = run("c1", argv) == run("c2", argv)
    pooled = run("c3", argv + ["--workers", "3"]) == run("c4", argv + ["--workers", "1"])
    ok = ok and twice and pooled

    argv = [
        "experiment", "--n-grid", "10,25", "--generator", "uniform:0,1",
        "--b", "200", "--seed", "13",
    ]
    twice = run("e1", argv) == run("e2", argv)
    pooled = run("e3", argv + ["--workers", "2"]) == run("e4", argv + ["--workers", "1"])
    ok = ok and twice and pooled

    assert _report(8, "CLI output is byte-identical across reruns and parallelism", ok)
