#!/usr/bin/env python3
"""Reproduce every default sweep with simulation columns into results/.

Usage: python scripts/run_all_sweeps.py [--trials N] [--seed N] [--outdir D]

Each sweep kind of the kind table (`cwf.config.DEFAULTS`) runs through the
`cwf` CLI on its built-in grid, in table order: two-user payloads
(300, 1000) over -5..10 dB, the packet-interval sweep at 0 dB, the two-user
block-fading sweep at K=1000, and the threshold-optimization grid.  Every
sweep runs even when an earlier one fails; the exit code is the first
non-zero CLI exit code, or 0.
"""

import argparse
import sys
import time
from pathlib import Path

from cwf import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)

    status = 0
    for sub, kind in cli.SUBCOMMAND_KINDS.items():
        if not kind.endswith("_sweep"):  # validate writes a report, not a sweep
            continue
        out = Path(args.outdir) / f"{kind}.csv"
        start = time.time()
        code = cli.main([sub, "--trials", str(args.trials), "--seed", str(args.seed),
                         "--out", str(out)])
        print(f"{sub:10s} -> {out}  exit {code}  ({time.time() - start:.1f}s)")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
