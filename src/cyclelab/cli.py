"""Command-line front end.

    cyclelab <find|split|rotate|bernstein|annulus|q2> --config cfg.json \
             [--out DIR] [--seed N]

Exit codes: 0 when every check in the report passed, 2 when the pipeline
completed but a check failed, 1 on a hard error. The JSON config grammar is
documented in the README.
"""
from __future__ import annotations

import argparse
import json
import sys

from .lab import ExperimentConfig, run_pipeline

_SUBCOMMANDS = {
    "find": "find",
    "split": "split-theorem1",
    "rotate": "rotate-theorem2",
    "bernstein": "bernstein-study",
    "annulus": "annulus",
    "q2": "q2-search",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclelab",
        description="limit-cycle splitting experiments on planar polynomial fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, pipeline in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {pipeline} pipeline")
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment config")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--system", type=str, default=None,
                       help="registry name, e.g. CK(3)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        # from_dict names a config that is no JSON object
        if isinstance(raw, dict):
            raw["pipeline"] = _SUBCOMMANDS[args.command]
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.system is not None:
                raw["system"] = args.system
        config = ExperimentConfig.from_dict(raw)
        report = run_pipeline(config, out_dir=args.out)
    except Exception as exc:  # hard error: unreadable or bad config, lost cycle, ...
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.to_text())
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
