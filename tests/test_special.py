"""The numpy normal CDF and log-sum-exp against scipy.special, and the box mass skips."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special as sc
import yaml

from causalgeom._special import SATURATED, _Z_MAX, box_mass, logsumexp, ndtr

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Measured against scipy 1.17.1 on x86-64 with numpy 2.4.6: at most 4 ulp,
# on the 1.5% of points where numpy's exp and the C library's round apart;
# the rest agree bit for bit. The bound leaves room for another exp.
CDF_ULPS = 8


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def _edges(points):
    """Each point and its two floating-point neighbours."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])


# every branch point of ndtr, in x: |x| / sqrt(2) = 1, 8 and _Z_MAX
BRANCHES = np.sqrt(2.0) * np.array([1.0, 8.0, _Z_MAX])


def test_cdf_matches_scipy_on_a_dense_grid():
    x = np.linspace(-45.0, 45.0, 900_001)
    assert np.max(_ulps(ndtr(x), sc.ndtr(x))) <= CDF_ULPS


def test_cdf_matches_scipy_at_every_branch_point():
    x = _edges(np.r_[BRANCHES, -BRANCHES, 0.0, SATURATED, -SATURATED])
    assert np.max(_ulps(ndtr(x), sc.ndtr(x))) <= CDF_ULPS


def test_cdf_saturates_where_scipy_does():
    x = np.r_[np.linspace(-60.0, 60.0, 240_001), _edges(np.r_[BRANCHES, -BRANCHES])]
    want = sc.ndtr(x)
    saturated = (want == 0.0) | (want == 1.0)
    np.testing.assert_array_equal(ndtr(x)[saturated], want[saturated])
    got = ndtr(np.array([-np.inf, np.inf, -1e308, 1e308, np.nan, -0.0, 5e-324]))
    np.testing.assert_array_equal(got, [0.0, 1.0, 0.0, 1.0, np.nan, 0.5, 0.5])


def test_cdf_keeps_the_input_shape():
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    assert ndtr(x).shape == (2, 3, 4)
    assert ndtr(np.float64(0.3)).shape == ()
    np.testing.assert_array_equal(ndtr(x), ndtr(x.ravel()).reshape(x.shape))


def test_no_runtime_warning_at_any_input():
    # CI turns a RuntimeWarning raised from causalgeom into an error
    x = np.r_[-np.inf, -1e308, -1e154, -40.0, -0.0, 0.0, 5e-324, 40.0, 1e154, 1e308, np.inf, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ndtr(x)
        box_mass(x[np.abs(x) != 1e308], 0.0, 1.0, 0.03)  # (hi - t) / scale overflows there, as in any form
        logsumexp(np.array([[-np.inf, -np.inf], [np.inf, 1.0], [np.nan, 1.0], [-np.inf, 2.0]]))


def test_the_points_the_skips_rest_on():
    # ndtr is exactly 1.0 from 8.3 on
    assert np.all(ndtr(np.linspace(8.3, 60.0, 100_001)) == 1.0)
    # below -8.4 it is under a quarter ulp of 0.5, and 2 ndtr(-w) < 2**-54
    assert np.all(ndtr(np.linspace(-60.0, -8.4, 100_001)) < 2.0**-55)
    # each skip decides on t with a margin to spare
    assert SATURATED - 8.4 > 0.05


@pytest.mark.parametrize("lo, hi, scale", [
    (0.0, 1.0, 0.03),  # the fig1b box, 33 scales wide
    (0.0, 1.0, 1e-3),
    (-2.0, 3.0, 1.0),
    (0.0, 8.5, 1.0),  # exactly SATURATED scales: ndtr(a) is skipped past hi
    (0.0, 7.0, 1.0),  # under it: ndtr(a) is needed past hi
    (5.0, 5.5, 0.7),  # narrower than one scale
    (-1e3, 1e3, 2.0),
])
def test_box_mass_is_the_plain_difference_bit_for_bit(lo, hi, scale):
    # out to where ndtr(b) is subnormal and then 0
    span = hi - lo + 90.0 * scale
    t = np.linspace(lo - 45.0 * scale, hi + 45.0 * scale, int(min(2e5, 50.0 * span / scale)))
    cuts = [lo + SATURATED * scale, hi - SATURATED * scale, hi, hi + SATURATED * scale, lo, lo - SATURATED * scale]
    t = np.r_[t, _edges(cuts), np.nan, np.inf, -np.inf]
    with np.errstate(invalid="ignore"):  # inf - inf in the reference
        want = ndtr((hi - t) / scale) - ndtr((lo - t) / scale)
    np.testing.assert_array_equal(box_mass(t, lo, hi, scale), want)


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2000, 9)) * 10.0 ** rng.integers(-3, 3, (2000, 1))
    a[::7, 3] = a[::7, 5]  # ties at the top
    a[::11, 2] = -np.inf
    # the same formula as scipy >= 1.15: agrees to the bit there; older
    # scipy sums without splitting off the top term, a few ulp apart
    np.testing.assert_allclose(logsumexp(a), sc.logsumexp(a, axis=-1), rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(logsumexp(a.T, axis=0), sc.logsumexp(a, axis=-1), rtol=1e-15, atol=1e-15)


def test_logsumexp_special_rows():
    a = np.array([[-np.inf, -np.inf, -np.inf], [np.inf, 0.0, 1.0], [2.0, 2.0, 2.0], [np.nan, 0.0, 1.0]])
    got = logsumexp(a)
    assert got[0] == -np.inf
    assert got[1] == np.inf
    assert got[2] == 2.0 + math.log(3.0)
    assert np.isnan(got[3])


# Blocks every scipy import, then runs a geometric config and a quadrature
# config whose crossover partner takes the discrete log-sum-exp path, and
# then each library example of the README.
_NO_SCIPY = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} blocked")
        return None

sys.meta_path.insert(0, NoScipy())
import causalgeom
import causalgeom.cli

codes = [causalgeom.cli.main(["run", config, "--output", out]) for config, out in json.loads(sys.argv[1])]
for example in json.loads(sys.argv[2]):
    exec(example, {"__name__": "__readme__"})
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_the_cli_runs_without_scipy(tmp_path):
    runs = []
    for name, sweep in (("fig3a", None), ("fig1c", {"from": 0.26857958838184381, "to": 0.5, "steps": 2})):
        doc = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8"))
        if sweep:
            doc["sweep"].update(sweep)
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        runs.append((str(config), str(tmp_path / name)))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert examples
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(runs), json.dumps(examples)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy": []}
    for _, out in runs:
        assert (pathlib.Path(out) / "results.csv").is_file()
