"""Dirichlet-process posterior resampling and bootstrap-equivalence experiments."""

from .core import (
    Dataset,
    DiscreteMeasure,
    DPParams,
    EmpiricalCDF,
    Functional,
    InvalidInputError,
    MEAN,
    MEDIAN,
    MixtureBase,
    NormalBase,
    RngStream,
    STDDEV,
    UniformBase,
    apply_functional,
    base_sample,
    derive_seed,
    ecdf_build,
    ecdf_eval,
    parse_functional,
    quantile,
)
from .dp import (
    atom_masses,
    conjugate_update,
    dp0_posterior,
    measure_sample,
    polya_urn_predictive,
    stick_break,
)
from .equiv import (
    ConvergenceRow,
    DistanceReport,
    EquivalenceReport,
    Verdict,
    compare,
    convergence_experiment,
    equivalence_verdict,
    kolmogorov_sf,
    ks_critical,
    ks_one_sample,
    ks_two_sample,
    self_calibrate,
    wasserstein1,
)
from .resample import (
    Ensemble,
    Method,
    bayesian_bootstrap_weights,
    dp_bootstrap_sample,
    frequentist_bootstrap,
    make_ensemble,
)

__version__ = "0.1.0"
