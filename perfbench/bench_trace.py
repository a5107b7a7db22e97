"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the calls into each ml2bf layer by replacing a
function under the name its caller looks it up by (``ml2bf.harness.
fit_suffstats``, ``ml2bf.bayesfactors.minimize_scalar``, ...), so the
program itself carries no tracing code.  Spans stay in memory and are
written out once, after the traced invocation ends.

A span's self time is its duration minus the part of that interval its
child spans cover; summed over all spans of one invocation, the self times
partition the root span's duration.
"""

import functools
import json
import time

# Span names that appear in the per-layer report, in report order.
LAYERS = (
    "cli",
    "harness",
    "harness.derive_stream",
    "harness.write",
    "regression.design",
    "regression.orthogonalize",
    "regression.fit",
    "regression.load_csv",
    "bayesfactors.zs_quad",
    "bayesfactors.zs_laplace",
    "bayesfactors.scalar_opt",
    "bayesfactors.closed_form",
    "bayesfactors.ml2_known_var",
    "modelspace.posterior",
    "modelspace.summaries",
    "estimation.shrinkage",
    "nonparametric",
    "nonparametric.design",
    "nonparametric.optimizer",
)

_CLOSED_FORMS = ("log_bf_ml2", "log_bf_gprior", "log_bf_bic", "log_bf_bic_prior",
                 "log_bf_aic", "log_bf_local_eb")
_SUMMARIES = ("hpm", "mpm", "inclusion_probs", "entropy")


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, counters."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[4] = count(args, kwargs or {}, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, counters) in enumerate(self.spans):
                record = {"id": i, "parent": parent, "name": name, "start": start,
                          "end": end}
                record.update(counters or {})
                fh.write(json.dumps(record) + "\n")


def _zs_models(args, kwargs, result):
    return {"models": len(kwargs.get("p_sizes", args[2] if len(args) > 2 else ()))}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _bytes(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    encoding = (args[2] if len(args) > 2 else kwargs.get("encoding")) or "utf-8"
    return {"bytes": len(data.encode(encoding))}


def install(tracer):
    """Replace each layer entry point with a traced wrapper, process-wide."""
    import pathlib

    from ml2bf import bayesfactors, cli, harness, nonparametric

    targets = [
        (cli, "run_experiment", "harness", None),
        (harness, "derive_stream", "harness.derive_stream", None),
        (pathlib.Path, "write_text", "harness.write", _bytes),
        (harness, "correlated_design_from_raw", "regression.design", None),
        (harness, "orthogonalize", "regression.orthogonalize", None),
        (harness, "fit_suffstats", "regression.fit", None),
        (harness, "load_dataset_csv", "regression.load_csv", None),
        (harness, "zs_evidence_batch", "bayesfactors.zs_quad", _zs_models),
        (harness, "log_bf_zs_laplace", "bayesfactors.zs_laplace", None),
        (bayesfactors, "minimize_scalar", "bayesfactors.scalar_opt", _nfev),
        (nonparametric, "ml2_known_variance_from_scalars",
         "bayesfactors.ml2_known_var", None),
        (harness, "posterior_from_evidence", "modelspace.posterior", None),
        (nonparametric, "posterior_from_evidence", "modelspace.posterior", None),
        (nonparametric, "hpm", "modelspace.summaries", None),
        (nonparametric, "mpm", "modelspace.summaries", None),
        (harness, "shrinkage_factor_ml2", "estimation.shrinkage", None),
        (harness, "run_study", "nonparametric", None),
        (nonparametric, "chebyshev_design", "nonparametric.design", None),
        (nonparametric, "minimize", "nonparametric.optimizer", _nfev),
    ]
    targets += [(harness, f, "bayesfactors.closed_form", None) for f in _CLOSED_FORMS]
    targets += [(harness, f, "modelspace.summaries", None) for f in _SUMMARIES]
    for owner, attr, name, count in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def self_times(spans):
    """Each span's duration minus the union of its direct children's intervals."""
    children = [[] for _ in spans]
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, parent, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans):
    """Per span name: call count, summed self time, and summed counters."""
    totals = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        agg = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        for key, value in (span[4] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return totals


def root_duration(spans):
    return sum(end - start for _, parent, start, end, _ in spans if parent < 0)
