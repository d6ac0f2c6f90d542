"""Command-line surface.

Four subcommands: `resample` emits one resample or weight vector,
`posterior` reports conjugate-update parameters as JSON, `compare`
runs one calibrated two-scheme comparison, and `experiment` sweeps the
comparison over a grid of sample sizes.  Every command is a pure
function of its flags: identical invocations produce identical bytes.

Input files hold one number per line; blank lines and lines starting
with `#` are ignored.  `-` means stdin/stdout.  Exit status is 0 on
success and 2 on usage or input errors; verdicts are data, never a
failing status.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    Dataset,
    DPParams,
    EmpiricalCDF,
    InvalidInputError,
    MixtureBase,
    NormalBase,
    RngStream,
    UniformBase,
    _short_number,
    parse_functional,
)
from .dp import conjugate_update, dp0_posterior
from .equiv import compare, convergence_experiment
from .resample import Method, _kernel

# Unused here since resampling goes through the kernel table; kept bound
# because bench/tracing.py wraps these names on this module.
from .core import ecdf_build  # noqa: F401
from .dp import atom_masses, polya_urn_predictive, stick_break  # noqa: F401
from .resample import bayesian_bootstrap_weights, dp_bootstrap_sample  # noqa: F401
from .resample import frequentist_bootstrap  # noqa: F401


def _read_dataset(path: str) -> Dataset:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise InvalidInputError(f"{path}: line {lineno}: not a number: {text!r}") from None
    if not values:
        raise InvalidInputError(f"{path}: no data")
    return Dataset(values)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_base(text: str):
    """Parse normal:MU,SIGMA or uniform:LO,HI."""
    kind, _, params = text.partition(":")
    try:
        a, b = (float(tok) for tok in params.split(","))
    except ValueError:
        raise InvalidInputError(f"bad base measure: {text!r} (expected KIND:A,B)") from None
    if kind == "normal":
        return NormalBase(a, b)
    if kind == "uniform":
        return UniformBase(a, b)
    raise InvalidInputError(f"unknown base kind: {kind!r}")


def _cmd_resample(args) -> int:
    kernel = _kernel(Method(args.method), _read_dataset(args.input))
    points, weights = kernel(RngStream(args.seed, 0).generator())
    out = points if weights is None else weights
    _write_text(args.output, "".join(map("{:.17g}\n".format, out.tolist())))
    return 0


def _describe_base(base) -> list:
    def label(measure) -> str:
        if isinstance(measure, EmpiricalCDF):
            return "empirical"
        if isinstance(measure, NormalBase):
            return f"normal({_short_number(measure.mean)},{_short_number(measure.sd)})"
        # The only other kind parsed.
        return f"uniform({_short_number(measure.lo)},{_short_number(measure.hi)})"

    components = base.components if isinstance(base, MixtureBase) else ((1.0, base),)
    return [{"weight": float(w), "component": label(m)} for w, m in components]


def _cmd_posterior(args) -> int:
    data = _read_dataset(args.input)
    base = None if args.base == "none" else _parse_base(args.base)  # checked at alpha 0 too
    if args.alpha == 0:  # the weak limit; also -0.0
        posterior = dp0_posterior(data)
    else:
        posterior = conjugate_update(DPParams(args.alpha, base), data)
    payload = {
        "alpha_posterior": float(posterior.alpha),
        "mixture": _describe_base(posterior.base),
        "n": len(data),
    }
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_compare(args) -> int:
    data = _read_dataset(args.input)
    functional = parse_functional(args.functional)
    report = compare(
        Method(args.method_a),
        Method(args.method_b),
        data,
        b=args.b,
        functional=functional,
        master_seed=args.seed,
        threshold_factor=args.threshold,
        reps=args.reps,
    )
    row = {
        "method_a": args.method_a,
        "method_b": args.method_b,
        "n": len(data),
        "b": args.b,
        "functional": functional.label(),
        **_distance_cells(report),
        "threshold": float(args.threshold),
        "verdict": report.verdict.value,
    }
    _write_table(args, row)
    return 0


def _cmd_experiment(args) -> int:
    try:
        grid = [int(token) for token in args.n_grid.split(",")]
    except ValueError:
        raise InvalidInputError(f"bad n-grid: {args.n_grid!r}") from None
    pairs = convergence_experiment(
        grid,
        _parse_base(args.generator),
        b=args.b,
        functional=parse_functional(args.functional),
        master_seed=args.seed,
        threshold_factor=args.threshold,
        reps=args.reps,
    )
    rows = [
        {"n": n, **_distance_cells(report), "verdict": report.verdict.value}
        for n, report in pairs
    ]
    _write_table(args, rows)
    return 0


def _distance_cells(report) -> dict:
    """The cross distances and the self-distance medians of one report."""
    return {
        "cross_ks": report.cross.ks,
        "cross_w1": report.cross.wasserstein1,
        "self_ks_median": report.self_ks_median,
        "self_w1_median": report.self_w1_median,
    }


def _write_table(args, table):
    """Write one record (a dict) or a list of records as CSV or JSON.

    JSON keeps the shape given; CSV has one header line, with the
    columns in the records' key order, then one line per record.
    """
    if args.format == "json":
        text = json.dumps(table, indent=2) + "\n"
    else:
        records = [table] if isinstance(table, dict) else table
        lines = [",".join(records[0])]
        for record in records:
            lines.append(",".join(_format_cell(value) for value in record.values()))
        text = "\n".join(lines) + "\n"
    _write_text(args.output, text)


def _format_cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _add_comparison_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--b", type=int, default=2000, help="replications per ensemble")
    parser.add_argument("--functional", default="mean", help="mean | median | sd | q:P")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="verdict factor over the self-distance median")
    parser.add_argument("--reps", type=int, default=5, help="self-calibration pair count")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    # Ignored; parsed only so that scripts passing it still run.
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--output", default="-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpboot",
        description="Dirichlet-process resampling and bootstrap-equivalence experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [m.value for m in Method]

    resample = sub.add_parser("resample", help="emit one resample or weight vector")
    resample.add_argument("--input", required=True)
    resample.add_argument("--method", required=True, choices=methods)
    resample.add_argument("--seed", type=int, default=0)
    resample.add_argument("--output", default="-")
    resample.set_defaults(handler=_cmd_resample)

    posterior = sub.add_parser("posterior", help="conjugate-update parameters as JSON")
    posterior.add_argument("--input", required=True)
    posterior.add_argument("--alpha", type=float, required=True)
    posterior.add_argument("--base", default="none",
                           help="normal:MU,SIGMA | uniform:LO,HI | none")
    posterior.add_argument("--output", default="-")
    posterior.set_defaults(handler=_cmd_posterior)

    cmp_parser = sub.add_parser("compare", help="calibrated two-scheme comparison")
    cmp_parser.add_argument("--input", required=True)
    cmp_parser.add_argument("--method-a", required=True, choices=methods)
    cmp_parser.add_argument("--method-b", required=True, choices=methods)
    _add_comparison_flags(cmp_parser)
    cmp_parser.set_defaults(handler=_cmd_compare)

    experiment = sub.add_parser("experiment", help="comparison sweep over sample sizes")
    experiment.add_argument("--n-grid", required=True, help="comma-separated sizes")
    experiment.add_argument("--generator", required=True,
                            help="normal:MU,SIGMA | uniform:LO,HI")
    _add_comparison_flags(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Parsing leaves no state in it, and the
    handlers read stdin and module globals only when they are called."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidInputError, OSError) as exc:
        print(f"dpboot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
