"""Golden regression: bundled configs rerun against the committed out/ files.

Gates: 1e-8 nats per value (1e-8 / ln 2 for columns in bits, 1e-8 absolute
for eigen columns), 1e-12 relative on the sweep values, and 1e-8 relative on
the location and bracket of every ``#crossing`` line. Fresh runs have matched
the committed files to about 1e-14 relative. The two exact-quadrature configs
run a few grid points each; the rest run in full.
"""

import math
import pathlib

import pytest
import yaml

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


# config -> sweep values to rerun (None: the bundled grid)
CASES = {
    "fig1b": [-5.0, 0.0],
    "fig1c": [0.077495949377416856, 0.14426999059072135],  # brackets the crossing
    "fig3a": None,
    "fig3b": None,
    "fig3c": None,
    "fig4a": None,
    "fig4b": None,
    "appendixA": None,
}


@pytest.mark.parametrize("config", list(CASES))
def test_bundled_config_matches_committed_results(tmp_path, config):
    header, rows, crossings = read_results(ROOT / "out" / config / "results.csv")
    doc = yaml.safe_load((ROOT / "configs" / f"{config}.yaml").read_text(encoding="utf-8"))
    values = CASES[config]
    if values is not None:
        rows = [row for row in rows if any(math.isclose(row[0], v, rel_tol=GRID_REL) for v in values)]
        assert len(rows) == len(values)
        doc["sweep"].update({"from": values[0], "to": values[-1], "steps": len(values)})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output", str(out)]) == 0

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
