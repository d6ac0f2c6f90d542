"""Spans around dpboot's layer boundaries, recorded from outside the program.

The traced run installs wrappers on the module attributes through which
callers reach the library (for example `dpboot.equiv.make_ensemble`,
which `compare` looks up at call time) and restores them afterwards.
Nothing under `src/` changes.  Each wrapper records one span: id, parent
span, name, operation id, start, end, and for ensembles the method, n,
B and process CPU time.  Spans stay in memory and are written out when
the run ends; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict

# (method, n) cells of make_ensemble that the workloads exercise:
# verdict-n25 uses four methods at n=25, sweep two methods on its grid.
ENSEMBLE_CELLS = tuple(
    [(m, n) for m in ("frequentist", "dp-stickbreak") for n in (10, 25, 100, 400)]
    + [("polya-urn", 25), ("dp-stickbreak-points", 25)]
)

_ENSEMBLE = "resample.make_ensemble"
_DISTANCES = ("equiv.ks_two_sample", "equiv.wasserstein1")
_SELF_TIMED = (_ENSEMBLE, "equiv.compare", "cli.main")


def _ensemble_info(method, data, b, *args, **kwargs):
    return (method.value, len(data), int(b))


class Tracer:
    """Collects spans from wrapped callables; one caller thread drives it.

    Spans on worker threads of the replication pool have no parent on
    their own thread; they are parented to the open ensemble span.
    """

    def __init__(self):
        self.spans = []  # (id, parent, name, op, start, end, info)
        self.op = -1  # operation id stamped on new spans; -1 outside operations
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = 0
        self._installed = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper(self, original, name: str, info=None, pool: bool = False):
        """A traced stand-in for `original`.

        `info` maps the call's arguments to a tuple stored on the span.
        `pool` marks the span that owns thread-pool work; its process
        CPU time is appended to the info tuple.
        """
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            extra = info(*args, **kwargs) if info else None
            if pool:
                outer, self._pool_parent = self._pool_parent, sid
                cpu = time.process_time()
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                if pool:
                    extra += (time.process_time() - cpu,)
                    self._pool_parent = outer
                stack.pop()
                self.spans.append((sid, parent, name, self.op, start, end, extra))

        return traced

    def wrap(self, owner, attr: str, name: str, **options):
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrapper(original, name, **options))
        self._installed.append((owner, attr, original))

    def install(self):
        from dpboot import cli, core, equiv, resample

        self.wrap(core.RngStream, "generator", "core.generator")
        self.wrap(resample, "apply_functional", "core.apply_functional")
        self.wrap(equiv, "make_ensemble", _ENSEMBLE, info=_ensemble_info, pool=True)
        self.wrap(equiv, "ks_two_sample", "equiv.ks_two_sample")
        self.wrap(equiv, "wasserstein1", "equiv.wasserstein1")
        self.wrap(equiv, "compare", "equiv.compare")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "convergence_experiment", "equiv.convergence_experiment")
        self.wrap(cli, "ecdf_build", "core.ecdf_build")
        for name in ("frequentist_bootstrap", "bayesian_bootstrap_weights", "dp_bootstrap_sample"):
            self.wrap(cli, name, "resample." + name)
        for name in ("stick_break", "atom_masses", "polya_urn_predictive", "dp0_posterior"):
            self.wrap(cli, name, "dp." + name)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        """Write the spans as CSV, times in microseconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,op,start_us,end_us,info\n")
            for sid, parent, name, op, start, end, info in self.spans:
                extra = "" if info is None else ";".join(str(x) for x in info)
                handle.write(
                    f"{sid},{parent},{name},{op},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{extra}\n"
                )


def self_times(spans) -> dict:
    """Self time of each ensemble, compare and cli.main span, by span id.

    A span's self time is its duration minus the part of its interval
    that the union of its children's intervals covers; children on pool
    threads may overlap each other.
    """
    wanted = {s[0]: s for s in spans if s[2] in _SELF_TIMED}
    children = defaultdict(list)
    for s in spans:
        if s[1] in wanted:
            children[s[1]].append((s[4], s[5]))
    out = {}
    for sid, (_, _, _, _, start, end, _) in wanted.items():
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def per_layer(spans, op_seconds: list, probe: list) -> dict:
    """Per-layer metrics from the spans of the traced operations and probe.

    `op_seconds` holds the traced operations' durations, `probe` the
    (n, atoms, residual) triples of the public stick-breaking probe.
    Per-call times include every span of that name; per-operation
    counts only spans inside operations.  A layer a workload does not
    reach reads 0.
    """
    ops = len(op_seconds)
    calls, busy, per_op = defaultdict(int), defaultdict(float), defaultdict(int)
    for _, _, name, op, start, end, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if op >= 0:
            per_op[name] += 1

    def us_per_call(name):
        return busy[name] / calls[name] * 1e6 if calls[name] else 0.0

    selfs = self_times(spans)

    def mean_self_ms(name):
        values = [selfs[s[0]] for s in spans if s[2] == name]
        return statistics.fmean(values) * 1e3 if values else 0.0

    m = {
        "core.generator.calls": per_op["core.generator"] / ops,
        "core.generator.us_per_call": us_per_call("core.generator"),
        "core.apply_functional.calls": per_op["core.apply_functional"] / ops,
        "core.apply_functional.us_per_call": us_per_call("core.apply_functional"),
    }

    ensembles = [s for s in spans if s[2] == _ENSEMBLE]
    for method, n in ENSEMBLE_CELLS:
        cell = [s for s in ensembles if s[6][:2] == (method, n)]
        reps = sum(s[6][2] for s in cell)
        wall = sum(s[5] - s[4] for s in cell)
        own = sum(selfs[s[0]] for s in cell)
        key = f"resample.make_ensemble.{method}.n{n}"
        m[key + ".us_per_rep"] = wall / reps * 1e6 if reps else 0.0
        m[key + ".self_us_per_rep"] = own / reps * 1e6 if reps else 0.0
    wall = sum(s[5] - s[4] for s in ensembles)
    m["resample.pool.cpu_per_wall"] = sum(s[6][3] for s in ensembles) / wall if wall else 0.0
    for name in ("frequentist_bootstrap", "bayesian_bootstrap_weights", "dp_bootstrap_sample"):
        m[f"resample.{name}.us_per_call"] = us_per_call("resample." + name)
    m["resample.replications_per_op"] = sum(s[6][2] for s in ensembles if s[3] >= 0) / ops

    for name in ("stick_break", "atom_masses", "polya_urn_predictive"):
        m[f"dp.{name}.us_per_call"] = us_per_call("dp." + name)
    m["dp.stick_break.atoms_p50"] = statistics.median(atoms for _, atoms, _ in probe)
    m["dp.stick_break.atoms_max"] = max(atoms for _, atoms, _ in probe)
    m["dp.stick_break.atoms_per_obs"] = statistics.median(atoms / n for n, atoms, _ in probe)
    m["dp.stick_break.residual_max"] = max(residual for _, _, residual in probe)

    for name in _DISTANCES:
        m[name + ".us_per_call"] = us_per_call(name)
    distance_time = sum(s[5] - s[4] for s in spans if s[2] in _DISTANCES and s[3] >= 0)
    m["equiv.distance_share"] = distance_time / sum(op_seconds)
    m["equiv.compare.self_ms"] = mean_self_ms("equiv.compare")
    m["equiv.distance_calls_per_op"] = per_op["equiv.ks_two_sample"] / ops
    m["cli.main.self_ms"] = mean_self_ms("cli.main")
    return m
