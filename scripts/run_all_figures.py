#!/usr/bin/env python3
"""Run every shipped config and collect the artifacts under out/.

Usage: python3 scripts/run_all_figures.py [--plot]

With --plot each run also writes plot.svg (requires matplotlib). Each
run's exit code and wall time are printed to standard error.
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
        print(f"{config.name}: exit {code} in {elapsed * 1e3:.0f} ms", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
