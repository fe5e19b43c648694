"""Command-line front end.

Subcommands map one-to-one onto the experiment drivers: ``region`` and
``strategies`` describe the model, ``matrix`` builds analytical transition
matrices, ``simulate`` estimates empirical ones, and ``figure2``/``figure3``
run the bundled distribution-evolution and truncation-error protocols.

Logs and progress go to standard error; data goes to files under the output
directory (``region`` and ``strategies`` also print to standard output).
Exit codes: 0 success, 2 configuration error, 3 degenerate model or invalid
strategy, 4 runtime guard exceeded, 5 an output file or directory could not
be written.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import experiments, serialize
from .errors import (
    ConfigError,
    DegenerateModelError,
    GuardExceededError,
    InvalidStrategyError,
)

log = logging.getLogger("slice_markov")

EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4
EXIT_OUTPUT = 5


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slice-markov",
        description="Admission-control chain analytics: region and strategy "
                    "enumeration, transition matrices, and simulation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "region": "enumerate the admissible states",
        "strategies": "enumerate the valid decision strategies",
        "matrix": "build analytical transition matrices per scenario and truncation depth",
        "simulate": "simulate the configured protocol and estimate empirical matrices",
        "figure2": "analytical vs simulated per-period state distributions",
        "figure3": "truncation-error sweep over scenarios, strategies, and depths",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment configuration (JSON)")
        cmd.add_argument("--out", help="output directory (overrides the configuration)")
        cmd.add_argument("--seed", type=int, help="base seed (overrides the configuration)")
        cmd.add_argument("--format", choices=experiments.OUTPUT_FORMATS,
                         help="output format (overrides the configuration)")
        cmd.add_argument("--no-renormalize", action="store_true",
                         help="keep raw rows with deficits instead of renormalizing")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress logging")
        if name in ("simulate", "figure2", "figure3"):
            cmd.add_argument("--workers", type=_positive_int, default=None,
                             help="worker processes for simulation runs (default: serial)")
        if name == "simulate":
            cmd.add_argument("--traces", action="store_true",
                             help="also write per-run state trajectories")
    return parser


def run(args: argparse.Namespace) -> int:
    cfg = experiments.load_config(
        args.config,
        seed_override=args.seed,
        out_override=args.out,
        format_override=args.format,
        renormalize_override=False if args.no_renormalize else None,
    )
    if args.command == "region":
        docs = [experiments.region_document(cfg)]
    elif args.command == "strategies":
        docs = [experiments.strategies_document(cfg)]
    elif args.command == "matrix":
        docs = experiments.matrix_documents(cfg)
    elif args.command == "simulate":
        docs = experiments.empirical_documents(cfg, workers=args.workers, include_traces=args.traces)
    elif args.command == "figure2":
        docs = [experiments.figure2_document(cfg, workers=args.workers)]
    else:
        docs = [experiments.figure3_document(cfg, workers=args.workers)]
    for doc in docs:
        paths = serialize.write_document(doc, cfg.out_dir, cfg.out_format)
        for path in paths:
            log.info("wrote %s", path)
    if args.command in ("region", "strategies"):
        serialize.dump(docs[0], sys.stdout, cfg.out_format)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return run(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (DegenerateModelError, InvalidStrategyError) as exc:
        log.error("degenerate model or strategy: %s", exc)
        return EXIT_DEGENERATE
    except GuardExceededError as exc:
        log.error("runtime guard exceeded: %s", exc)
        return EXIT_GUARD
    except OSError as exc:
        # load_config reports a failed read as a ConfigError, so an OSError
        # here comes from creating the output directory or writing a file
        # or standard output.
        log.error("cannot write output: %s", exc)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
