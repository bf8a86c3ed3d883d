#!/usr/bin/env python3
"""Run every shipped config and collect the artifacts under out/.

Usage: python3 scripts/run_all_figures.py [--plot]

With --plot each run also writes plot.svg (requires matplotlib). The full
set took 2.9 s (median of three runs, interpreter start-up included) on a
2-core x86-64 host with two worker threads and BLAS pinned to one thread
(Python 3.11, numpy 2.4): 1.5 s for fig1b, whose 41 grid points are exact
quadratures, 0.9 s for fig1c, and 0.1 s or less for each geometric config.
"""

from __future__ import annotations

import pathlib
import sys
import time

from causalgeom.cli import main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run() -> int:
    extra = [a for a in sys.argv[1:] if a == "--plot"]
    worst = 0
    for config in sorted(CONFIG_DIR.glob("*.yaml")):
        start = time.perf_counter()
        code = main(["run", str(config), *extra])
        elapsed = time.perf_counter() - start
        print(f"{config.name}: exit {code} in {elapsed:.1f}s", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
