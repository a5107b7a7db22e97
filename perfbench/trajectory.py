"""Run the benchmark over several seeds and record one point of the perf trajectory.

    python3 perfbench/trajectory.py --label NAME [--runs 10] [--workloads W ...]

Per workload: ``--runs`` untraced runs on seeds 1..runs, each exactly as
``BENCHMARK.json`` specifies it, then one traced run.  Prints each
end-to-end metric's median and spread (interquartile distance over median,
against the bound in ``BENCHMARK.json``) and writes everything, with the
environment, to ``perfbench/trajectory/<NAME>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result, point["env"] = run_once(spec, workload, seed, 0)
            results.append(result)
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
        traced, _ = run_once(spec, workload, 1, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in results])
                           for name in bounds},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
        point["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.6g} spread "
                  f"{stats['spread']:.4f} (bound {bounds[name]})", flush=True)
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
