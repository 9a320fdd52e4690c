"""Command line entry point.

    cwf <subcommand> [--config path.json] [--seed N] [--trials N] [--out path]
    cwf validate [--criteria 2,3] ...

Subcommands are the kinds of the `config.DEFAULTS` table without their
`_sweep` suffix: thm1, queue, fading, waterfill (CSV sweeps, each run by
`sweeps.run_<kind>`) and validate (the oracle suite).  Flags override
config-file fields; without a config the kind's built-in fields are used.
`--criteria` runs a subset of the validate criteria, by index (10 is the
determinism rerun, so it needs at least one index in 1..9).

Exit codes: 0 success, 1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .config import KINDS, ConfigError, ExperimentConfig, default_config

SUBCOMMAND_KINDS = {kind.removesuffix("_sweep"): kind for kind in KINDS}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cwf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMAND_KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat JSON experiment config")
        p.add_argument("--seed", type=int, help="root RNG seed (overrides config)")
        p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        p.add_argument("--out", help="output CSV path")
        if name == "validate":
            p.add_argument("--criteria", help="comma-separated criterion indices in 1..10")
    return parser


def _parse_criteria(text: str) -> list[int]:
    from .validate import criteria_selection  # the one rule for which indices run

    try:
        if not re.fullmatch(r"[1-9][0-9]*(,[1-9][0-9]*)*", text):
            raise ConfigError("not comma-separated indices")
        return sorted(criteria_selection([int(i) for i in text.split(",")]))
    except ConfigError as exc:
        raise ConfigError(f"--criteria {text!r}: {exc}") from None


def _load_config(args) -> ExperimentConfig:
    kind = SUBCOMMAND_KINDS[args.subcommand]
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.kind != kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match subcommand {args.subcommand!r}")
    else:
        cfg = default_config(kind)
    return cfg.override(seed=args.seed, trials=args.trials, out=args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if cfg.kind == "validate":
            from .validate import run_validate

            criteria = None if args.criteria is None else _parse_criteria(args.criteria)
            out = cfg.out or "validate_report.csv"
            _, all_passed, _ = run_validate(cfg.resolved_seed, out, criteria=criteria)
            print(f"report written to {out}")
            return EXIT_OK if all_passed else EXIT_VALIDATION

        from . import sweeps

        out = cfg.out or f"{cfg.kind}.csv"
        # looked up per call, so a runner rebound on the module is the one run
        getattr(sweeps, f"run_{cfg.kind}")(cfg, out)
        print(f"results written to {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
