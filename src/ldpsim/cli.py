"""Command-line entry point.

Subcommands map to experiment kinds::

    ldpsim analytic      --config cfg.txt --seed 42 --out table.csv
    ldpsim attack-oracle --config cfg.txt ...
    ldpsim reident       --config cfg.txt ...
    ldpsim attr-infer    --config cfg.txt ...
    ldpsim mse           --config cfg.txt ...

Flags override config keys.  Exit codes: 0 success, 2 config error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .harness import (
    KINDS,
    build_config,
    env_threads,
    export_results,
    parse_config,
    run_experiment,
)

SUBCOMMANDS = {kind.replace("_", "-"): kind for kind in KINDS}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="config file path")
    sub.add_argument("--seed", type=int, default=None, help="master seed (mandatory here or in config)")
    sub.add_argument("--out", type=str, default=None, help="output file path")
    sub.add_argument("--format", choices=("csv", "jsonl"), default=None)
    sub.add_argument("--runs", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpsim",
        description="Run LDP collection / attack experiments and export tidy tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        _add_common(subparsers.add_parser(name, help=f"run the {name} experiment"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            raw = parse_config(text)
        kind = SUBCOMMANDS[args.command]
        if raw.get("experiment", kind) != kind:
            raise ConfigError(
                f"config declares experiment={raw['experiment']!r} but the "
                f"{args.command} subcommand was invoked"
            )
        overrides = {
            "experiment": kind,
            "seed": args.seed,
            "out": args.out,
            "format": args.format,
            "runs": args.runs,
            "threads": env_threads() if args.threads is None else args.threads,
        }
        cfg = build_config(raw, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        rows = run_experiment(cfg)
        out = export_results(rows, cfg.out, cfg.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary: report and set exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
