"""Record the reference outputs behind ``output_dev_se``.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each reference-backed workload (default: table1, figure_ar1, shibata)
once per program seed 0..REFERENCE_SEEDS-1 and stores every output cell's
average and standard error in ``reference/<workload>.json``.  The committed
files were made at the commit that introduced the benchmark; re-running it
re-baselines ``output_dev_se`` and is done only on purpose.
"""

import json
import shutil
import sys
import time

from bench_workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS
from run import ROOT, Session


def main(names):
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or ("table1", "figure_ar1", "shibata"):
        workload = WORKLOADS[name]()
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            workdir = ROOT / ".perfbench_work" / f"reference-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                Session(workload, seed, workdir, time.monotonic() + 600).invoke(1, None)
                seeds[str(seed)] = workload.cells(workdir / "out")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: {len(seeds[str(seed)])} cells", flush=True)
        (REFERENCE_DIR / f"{name}.json").write_text(
            json.dumps({"workload": name, "replicates": workload.replicates,
                        "seeds": seeds}, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
