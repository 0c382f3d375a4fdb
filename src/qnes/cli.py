"""Command-line entry point.

    qnes run CONFIG [--seed N ...] [--out DIR] [--override section.key=value ...]
    qnes summarize TRACE [TRACE ...] --out FILE

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, load_config, run_experiment, summarize, write_summary_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnes")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to an INI experiment config")
    run.add_argument("--seed", type=int, action="append",
                     help="replace the config's seed list (repeatable)")
    run.add_argument("--out", help="replace the config's output directory")
    run.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                     help="override one config value (repeatable)")

    summ = sub.add_parser("summarize", help="mean/min/max across trace CSVs")
    summ.add_argument("traces", nargs="+", help="trace CSV files; rows stop at the shortest")
    summ.add_argument("--out", required=True, help="summary CSV output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        overrides = {}
        for item in args.override:
            if "=" not in item:
                print(f"error: override must look like section.key=value, got {item!r}",
                      file=sys.stderr)
                return 2
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        try:
            config = load_config(args.config, overrides=overrides or None,
                                 seeds=args.seed, out_dir=args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            run_experiment(config)
        except Exception as exc:  # partial traces stay on disk
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 3
        print(f"wrote traces to {config.out_dir}")
        return 0

    try:
        write_summary_csv(Path(args.out), summarize(args.traces))
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
