"""One timed ml2bf CLI invocation in a fresh, single-process Python.

    python3 bench_child.py REPORT T0 SPANS -- <ml2bf arguments>

T0 is the parent's ``time.monotonic()`` taken just before it started this
process, so set-up time covers interpreter start, ``import ml2bf``, argument
and config parsing, up to the moment ``ml2bf.cli`` calls the experiment.
SPANS is ``-`` for an untraced invocation, otherwise the path the span log
is written to after the run.  REPORT receives one JSON object with the exit
code, set-up and experiment times, peak RSS and, when traced, the per-layer
totals.
"""

import json
import resource
import sys
import time


def main():
    report_path, t0, spans_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]

    from ml2bf import cli

    tracer = None
    if spans_path != "-":
        import bench_trace

        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)

    marks = {}
    experiment = cli.run_experiment

    def timed_experiment(cfg):
        marks["enter"] = time.monotonic()
        try:
            return experiment(cfg)
        finally:
            marks["exit"] = time.monotonic()

    cli.run_experiment = timed_experiment
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.call("cli", cli.main, (argv,))

    report = {
        "exit_code": code,
        "ml2bf_file": cli.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if "exit" in marks:
        report["setup_s"] = marks["enter"] - t0
        report["experiment_s"] = marks["exit"] - marks["enter"]
    if tracer is not None:
        tracer.write(spans_path)
        report["layers"] = bench_trace.layer_totals(tracer.spans)
        report["wall_s"] = bench_trace.root_duration(tracer.spans)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
