"""The ml2bf benchmark: CLI workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the ``src/ml2bf`` next to this
directory.  Each invocation runs ``ml2bf.cli.main`` in a fresh
single-process Python (``--threads 1``, BLAS pinned to one thread) on
inputs made from ``--seed``, in a closed loop: the next invocation starts
when the previous one has ended, until ``--seconds`` have passed (at least
two invocations).  Workloads (see ``bench_workloads``): ``table1``,
``figure_ar1``, ``shibata``, ``bf_wide``.

``--trace 0`` reports, as medians over the invocations:
  setup_s         process start to the first experiment call (interpreter,
                  ``import ml2bf``, argument and config parsing)
  datasets_per_s  datasets carried through every rule, reduction and write
  models_per_s    models fitted and scored under every rule, per second
  peak_rss_mb     peak resident memory of the invocation's process
The times behind the first three are at reference host speed: see ``probe``.
``--trace 1`` alternates untraced and traced invocations and reports, from
the traced ones, each layer's calls, solver evaluations and bytes (which
must repeat exactly) and its mean self time (see ``bench_trace``; the self
times sum to ``trace.wall_s``), the tracing overhead, and the process-pool
speed-up of one ``--threads 2`` invocation against the untraced ones.

Every invocation is checked: exit code 0, the expected output rows, finite
values, probabilities in [0, 1] summing to one, the recorded reference
outputs (``output_dev_se``) or the scalar oracles (``log_ev_dev``), and
byte-identical output files across the run's invocations; traced ones also
check that self times partition the wall time, that counts repeat exactly,
and that bypassed layers stay at zero calls.  An invocation failing any
check counts in ``failed``.  The last stdout line is the JSON result; the
full record, with the environment, goes to ``.perfbench_out/``.
"""

import os

# Pin BLAS threads before numpy loads, here and in every invocation: with
# 2-core OpenBLAS threading one invocation varied by up to about 30%.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from bench_trace import LAYERS  # noqa: E402
from bench_workloads import WORKLOADS, CheckError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "datasets_per_s": "1/s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTERS = ("calls", "nfev", "models", "bytes")
# Host speed that reported times are scaled to: about the time ``probe``
# takes on the 2-core VM the trajectory was recorded on.
REFERENCE_PROBE_S = 0.1
# Layers that the workload must not reach (the bypass predictions).
BYPASSED = {
    "shibata": ("regression.fit", "bayesfactors.zs_quad"),
    "table1": ("nonparametric.optimizer",),
    "figure_ar1": ("nonparametric.optimizer",),
    "bf_wide": ("nonparametric.optimizer",),
}


def per_layer_metrics():
    """Name -> unit of every metric the traced run reports."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for layer in ("regression.fit", "regression.orthogonalize", "bayesfactors.zs_quad",
                  "bayesfactors.zs_laplace", "bayesfactors.scalar_opt",
                  "bayesfactors.closed_form", "bayesfactors.ml2_known_var",
                  "modelspace.posterior", "estimation.shrinkage",
                  "nonparametric.optimizer", "harness.derive_stream"):
        units[f"{layer}.calls"] = "count"
    units.update({
        "regression.fit.us_per_model": "us",
        "regression.fit.models_per_dataset": "count",
        "bayesfactors.zs_quad.models": "count",
        "bayesfactors.zs_quad.us_per_model": "us",
        "bayesfactors.scalar_opt.nfev": "count",
        "nonparametric.optimizer.nfev": "count",
        "harness.write.bytes": "bytes",
        "harness.pool.speedup": "x",
        "trace.wall_s": "s",
        "trace.overhead_share": "share",
    })
    return units


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned setting if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "threads": 1,
    }


_PROBE_ARRAY = np.linspace(0.0, 1.0, 1 << 21)


def probe():
    """Wall time of a fixed calibration loop that runs none of ml2bf.

    The host is shared: for stretches of seconds to minutes, up to longer
    than a run, neighbours slow it by up to about 1.5x, and a fixed loop
    slows with it.  Timed right before and after each invocation, this loop
    (Python bytecode, small-array and memory-bound numpy work, as the
    workloads mix them) gives the host's speed at the time; invocation times
    are scaled by ``REFERENCE_PROBE_S`` over it, so that a run reports the
    program's speed rather than its neighbours' load.
    """
    t0 = time.monotonic()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    small = np.arange(64.0)
    for _ in range(6_000):
        small = np.sqrt(small * small + 1.0) - 0.5
    big = _PROBE_ARRAY
    for _ in range(12):
        big = big * 0.999 + 0.001
    return time.monotonic() - t0


class Session:
    """The invocations of one benchmark run, with their checks."""

    def __init__(self, workload, seed, workdir, hard_deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        self.args = workload.prepare(seed, workdir)
        self.records = []
        self.first = None  # (output bytes, check result) of the first good invocation
        self.counts = None  # per-layer counts of the first good traced invocation

    def run(self, threads=1, spans=None):
        record = {"threads": threads, "traced": spans is not None}
        try:
            before = probe()
            record.update(self.invoke(threads, spans))
            record["probe_s"] = (before + probe()) / 2
            record.update(self._check(threads))
            if spans is not None:
                self._check_trace(record)
            record["ok"] = True
        except CheckError as exc:
            record.update(ok=False, error=str(exc))
        self.records.append(record)
        return record

    def invoke(self, threads, spans):
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "bench_child.py"), str(report), repr(t0),
               str(spans or "-"), "--", *self.args, "--out", "out", "--threads",
               str(threads)]
        # A session of its own, so a timeout also stops the --threads 2 pool workers.
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.hard_deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckError("invocation timed out")
        if proc.returncode != 0 or not report.exists():
            raise CheckError(f"exit code {proc.returncode}: {stderr.strip()[-500:]}")
        result = json.loads(report.read_text())
        if not result["ml2bf_file"].startswith(str(SRC)):
            raise CheckError(f"ran {result['ml2bf_file']}, not the checkout's ml2bf")
        return result

    def _check(self, threads):
        out = self.workdir / "out"
        names = self.workload.files if threads == 1 else (self.workload.result_file,)
        try:
            files = {name: (out / name).read_bytes() for name in names}
        except OSError as exc:
            raise CheckError(f"missing output: {exc}")
        if self.first is None:
            if threads != 1:
                raise CheckError("no single-thread invocation to compare against")
            try:
                self.first = (files, self.workload.check(out, self.seed))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckError(f"malformed output: {exc!r}")
        elif any(files[name] != self.first[0][name] for name in names):
            raise CheckError(f"output bytes differ from the run's first invocation "
                             f"(threads={threads})")
        return self.first[1]

    def _check_trace(self, record):
        layers = record["layers"]
        total = sum(agg["self_s"] for agg in layers.values())
        if abs(total - record["wall_s"]) > 1e-6:
            raise CheckError(f"self times sum to {total}, wall time is {record['wall_s']}")
        for layer in BYPASSED[self.workload.name]:
            if layers[layer]["calls"]:
                raise CheckError(f"{layer} was called on {self.workload.name}")
        counts = {(layer, key): value for layer, agg in layers.items()
                  for key, value in agg.items() if key in COUNTERS}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            changed = sorted(k for k in counts.keys() | self.counts.keys()
                             if counts.get(k) != self.counts.get(k))
            raise CheckError(f"per-layer counts did not repeat: {changed}")

    def good(self, traced=False, threads=1):
        return [r for r in self.records
                if r["ok"] and r["traced"] == traced and r["threads"] == threads]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(session):
    good = session.good()
    w = session.workload
    models = w.datasets * w.models_per_dataset
    scale = [REFERENCE_PROBE_S / r["probe_s"] for r in good]
    setup = [r["setup_s"] * k for r, k in zip(good, scale)]
    experiment = [r["experiment_s"] * k for r, k in zip(good, scale)]
    return {
        "setup_s": _median(setup),
        "datasets_per_s": _median([w.datasets / t for t in experiment]),
        "models_per_s": _median([models / t for t in experiment]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
    }


def per_layer(session):
    traced = session.good(traced=True)
    untraced = session.good()
    pooled = session.good(threads=2)
    values = dict.fromkeys(per_layer_metrics(), 0.0)
    if not traced:
        return values
    layers = traced[0]["layers"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.fmean(r["layers"][layer]["self_s"]
                                                     for r in traced)
        if f"{layer}.calls" in values:
            values[f"{layer}.calls"] = layers[layer]["calls"]
    fit, zs = layers["regression.fit"], layers["bayesfactors.zs_quad"]
    orth_calls = layers["regression.orthogonalize"]["calls"]
    values.update({
        "regression.fit.us_per_model":
            1e6 * values["regression.fit.self_s"] / fit["calls"] if fit["calls"] else 0.0,
        "regression.fit.models_per_dataset":
            fit["calls"] / orth_calls if orth_calls else 0.0,
        "bayesfactors.zs_quad.models": zs.get("models", 0),
        "bayesfactors.zs_quad.us_per_model":
            1e6 * values["bayesfactors.zs_quad.self_s"] / zs["models"]
            if zs.get("models") else 0.0,
        "bayesfactors.scalar_opt.nfev": layers["bayesfactors.scalar_opt"].get("nfev", 0),
        "nonparametric.optimizer.nfev": layers["nonparametric.optimizer"].get("nfev", 0),
        "harness.write.bytes": layers["harness.write"].get("bytes", 0),
        "trace.wall_s": statistics.fmean(r["wall_s"] for r in traced),
    })
    base = _median([r["experiment_s"] for r in untraced])
    if base:
        values["trace.overhead_share"] = (
            _median([r["experiment_s"] for r in traced]) / base - 1.0)
        if pooled:
            values["harness.pool.speedup"] = base / pooled[0]["experiment_s"]
    return values


def run(workload, seed, seconds, trace, workdir):
    start = time.monotonic()
    deadline = start + seconds
    session = Session(workload, seed, workdir, start + HARD_LIMIT_S)
    spans_dir = OUT / "spans"
    if trace:
        for stale in spans_dir.glob(f"{workload.name}-*.jsonl"):
            stale.unlink()
    rounds = 0
    while rounds < 2 or time.monotonic() < deadline:
        round_start = time.monotonic()
        session.run()
        if trace:
            session.run(spans=spans_dir / f"{workload.name}-{rounds}.jsonl")
        rounds += 1
        # Leave room for one more round and the closing pool invocation.
        if time.monotonic() + 3 * (time.monotonic() - round_start) > start + HARD_LIMIT_S:
            break
    if trace:
        session.run(threads=2)
        return session, per_layer(session)
    return session, end_to_end(session)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same paths in about a second (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ml2bf" / "cli.py").is_file():
        print(f"perfbench: no ml2bf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the scalar oracles of bf_wide

    workload = WORKLOADS[args.workload](args.size)
    units = per_layer_metrics() if args.trace else END_TO_END
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        session, values = run(workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    attempted = len(session.records)
    failed = sum(not r["ok"] for r in session.records)
    accuracy = session.first[1] if session.first else {}
    print(f"env {json.dumps(env, sort_keys=True)}")
    for record in session.records:
        if not record["ok"]:
            print(f"failed invocation (threads={record['threads']}, "
                  f"traced={record['traced']}): {record['error']}")
    samples = len(session.good(traced=bool(args.trace)))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit} (n={samples})")
    probes = [r["probe_s"] for r in session.records if "probe_s" in r]
    print(f"{args.workload} probe_s = {_median(probes):.4g} s (n={len(probes)}; "
          f"end-to-end times are scaled to {REFERENCE_PROBE_S} s of it)")
    for name, value in sorted(accuracy.items()):
        print(f"{args.workload} {name} = {value:.3g}")
    print(f"{args.workload} failed_share = {failed / attempted:.3g} "
          f"({failed} of {attempted} invocations)")

    result = {
        "correct": failed == 0 and session.first is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, "accuracy": accuracy,
              "invocations": [{k: v for k, v in r.items() if k != "layers"}
                              for r in session.records],
              "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
