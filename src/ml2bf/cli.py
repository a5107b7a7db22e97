"""Command-line entry point.

Exit codes: 0 on success, 2 on configuration errors (bad flags, config
file, or input CSV), 3 on numerical failures.
"""

import argparse
import sys

from .bayesfactors import QuadratureError
from .harness import (
    EXPERIMENTS,
    ConfigError,
    build_config,
    load_config_file,
    run_experiment,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ml2bf",
        description="Seeded model-selection experiments and Bayes factor reports.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("dataset", nargs="?", help="CSV path (bf experiment only)")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", help="64-bit unsigned seed")
    parser.add_argument("--replicates")
    parser.add_argument("--out", dest="output_dir", metavar="OUT",
                        help="output directory (required)")
    parser.add_argument("--methods", help="comma-separated evidence rules, "
                        "e.g. ml,lb,bic,bicprior,zs,ghat")
    parser.add_argument("--threads",
                        help="worker processes for the replicates, at most the usable cores")
    return parser


def main(argv=None) -> int:
    args = vars(_parser().parse_args(argv))
    config = args.pop("config")
    try:
        file_values = load_config_file(config) if config else {}
        cfg = build_config(args.pop("experiment"), file_values, **args)
    except ConfigError as exc:
        print(f"ml2bf: config error: {exc}", file=sys.stderr)
        return 2
    try:
        run_experiment(cfg)
    except ConfigError as exc:
        print(f"ml2bf: config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, FloatingPointError, ValueError) as exc:
        print(f"ml2bf: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"results written to {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
