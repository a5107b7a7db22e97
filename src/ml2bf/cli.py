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
    parser.add_argument("--seed", type=int, help="64-bit unsigned seed")
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--out", help="output directory (required)")
    parser.add_argument("--methods", help="comma-separated evidence rules, "
                        "e.g. ml,lb,bic,bicprior,zs,ghat")
    parser.add_argument("--threads", type=int,
                        help="worker processes for the replicates, at most the usable cores")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cfg = build_config(
            args.experiment,
            file_values,
            seed=args.seed,
            replicates=args.replicates,
            output_dir=args.out,
            methods=args.methods,
            threads=args.threads,
            dataset=args.dataset,
        )
        if cfg.experiment != "bf" and args.seed is None and "seed" not in file_values:
            raise ConfigError("simulations need an explicit --seed")
        if not cfg.output_dir:
            raise ConfigError("no output directory: pass --out DIR "
                              "(or set out or output_dir in the config file)")
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
