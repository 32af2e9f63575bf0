#!/usr/bin/env python3
"""Sweep singular families beyond the worked examples.

Runs the certifier (and optionally the numeric search) over ranges of
diameter-3 trees, caterpillars and tadpoles, printing one CSV row per
instance.  "unknown" rows are the interesting ones: instances the
default budget cannot close either way.

Usage examples:
    python scripts/conjecture_sweep.py
    python scripts/conjecture_sweep.py --fast "tadpole:4,m for m in 1,3,5,7"
    python scripts/conjecture_sweep.py --restarts 60
"""

import argparse
import sys

from evograph.cli import main

DEFAULT_RANGES = [
    "cmn:m,n for m,n in 2..4",
    "caterpillar:1,a,b for a,b in 2..3",
    "tadpole:4,m for m in 1,3,5",
]


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("ranges", nargs="*", default=DEFAULT_RANGES)
    ap.add_argument("--fast", action="store_true", help="skip numeric search")
    ap.add_argument("--restarts", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()
    code = 0
    for spec in args.ranges or DEFAULT_RANGES:
        flags = ["--restarts", str(args.restarts), "--seed", str(args.seed), "--depth", str(args.depth)]
        if args.fast:
            flags.append("--fast")
        code = max(code, main(["sweep", spec, *flags]))
    return code


if __name__ == "__main__":
    sys.exit(run())
