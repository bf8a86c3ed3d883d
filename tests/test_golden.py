"""Golden regression: bundled configs rerun against the committed out/ files.

Gates: 1e-8 nats per value (1e-8 / ln 2 for columns in bits, 1e-8 absolute
for eigen columns), 1e-12 relative on the sweep values, and 1e-8 relative on
the location and bracket of every ``#crossing`` line. Fresh runs have matched
the committed files to about 1e-14 relative. Every config runs its full grid.
"""

import math
import pathlib

import pytest

from causalgeom.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
EI_GATE_NATS = 1e-8
GRID_REL = 1e-12
CROSSING_REL = 1e-8


def read_results(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    crossings = [line.split(",")[1:] for line in lines[1:] if line.startswith("#crossing,")]
    return lines[0].split(","), rows, crossings


CONFIGS = ["fig1b", "fig1c", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "appendixA"]


@pytest.mark.parametrize("config", CONFIGS)
def test_bundled_config_matches_committed_results(tmp_path, config):
    header, rows, crossings = read_results(ROOT / "out" / config / "results.csv")
    out = tmp_path / "out"
    assert main(["run", str(ROOT / "configs" / f"{config}.yaml"), "--output", str(out)]) == 0

    got_header, got_rows, got_crossings = read_results(out / "results.csv")
    assert got_header == header and len(got_rows) == len(rows)
    for got, want in zip(got_rows, rows):
        assert got[0] == pytest.approx(want[0], rel=GRID_REL)
        for name, a, b in zip(header[1:], got[1:], want[1:]):
            gate = EI_GATE_NATS / math.log(2.0) if name.endswith("_bits") else EI_GATE_NATS
            assert a == b or abs(a - b) <= gate or (math.isnan(a) and math.isnan(b)), f"{name} at {got[0]!r}"
    assert len(got_crossings) == len(crossings)
    for got, want in zip(got_crossings, crossings):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:]):
            assert float(a) == pytest.approx(float(b), rel=CROSSING_REL)
