"""The CLI contract under generated configs, valid and malformed.

Whatever the document, ``main`` returns 0, 2 or 3 without raising and
without printing a traceback; a successful run writes a CSV whose header is
as wide as every row, and a failed run leaves no output directory. Documents
that would reach Monte Carlo (the exact estimator on two-species) are left
out to keep the test short; sweeps have at most three steps.

The package's public names are pinned here too, so a change to what
``causalgeom`` exports is a deliberate edit of this module.
"""

import contextlib
import io
import pathlib
import tempfile
import types

import yaml
from hypothesis import assume, example, given, settings, strategies as st

import causalgeom
from causalgeom.cli import MODELS, main

MALFORMED = ["abc", True, None, [1.0, 2.0], {"k": 1}, -1.0, 0.0, float("nan"), float("inf")]
NOISE = [0.03, 0.1, 0.5]
PARAMS = {
    "dimmer": {"epsilon": NOISE, "delta": NOISE, "profile": ["linear", "power"], "exponent": [2.0, 3.0]},
    "binary-switch": {"epsilon": NOISE, "delta": NOISE},
    "decay-confounder": {
        "sigma_t": [0.05, 0.4],
        "sigma_x": [1.0, 0.2],
        "alpha": [1.0, 3.0],
        "x_hat": [1.0, -2.0],
    },
    "two-species": {
        "epsilon": NOISE,
        "delta": NOISE,
        "delta_t": [1.0, 0.2],
        "n_points": [1, 3],
        "matrix": [[[1, 0], [0, 1]], [[1, 0.5], [0, 1]]],
    },
}
TOP_LEVEL = ["schema_version", "model", "computation", "estimator", "sweep", "submanifolds",
             "theta", "seed", "units", "threads", "extra_key"]


@st.composite
def valid_documents(draw):
    """A document the runner should accept, shaped by what the model supports."""
    name = draw(st.sampled_from(sorted(PARAMS)))
    entry = MODELS[name]
    params = {k: draw(st.sampled_from(v)) for k, v in PARAMS[name].items() if draw(st.booleans())}
    computation = draw(st.sampled_from(entry.computations))
    doc = {"schema_version": 1, "model": {"name": name, **params}, "computation": computation}
    sweepable = [k for k in PARAMS[name] if k in ("epsilon", "delta", "sigma_t", "alpha")]
    if computation == "eigen":
        sweepable.append("theta")
        if entry.eigen_theta is None:
            doc["theta"] = [0.3, 0.6][: entry.dim]
    if sweepable and (computation == "crossover-scan" or draw(st.booleans())):
        variable = draw(st.sampled_from(sweepable))
        low, high = (0.2, 0.8) if variable == "theta" else (0.02, 0.2)
        doc["sweep"] = {"variable": variable, "from": low, "to": high, "steps": draw(st.integers(2, 3))}
        doc["sweep"]["log"] = draw(st.booleans())
    if name == "two-species" and computation in ("ei-geom", "crossover-scan") and draw(st.booleans()):
        doc["submanifolds"] = draw(st.sampled_from([["diagonal"], ["antidiagonal", "diagonal"]]))
    for key, values in (("seed", [0, 7]), ("units", ["bits", "nats"]), ("threads", [1, 2])):
        if draw(st.booleans()):
            doc[key] = draw(st.sampled_from(values))
    return doc


@st.composite
def documents(draw):
    """A valid document, or one with a key, model parameter or sweep key set to a bad value."""
    doc = draw(valid_documents())
    where = draw(st.sampled_from(["none", "top", "model", "sweep"]))
    bad = draw(st.sampled_from(MALFORMED + ["psychic", 2, "diagonal"]))
    if where == "top":
        doc[draw(st.sampled_from(TOP_LEVEL))] = bad
    elif where == "model":
        doc["model"][draw(st.sampled_from([*PARAMS[doc["model"]["name"]], "name", "wattage"]))] = bad
    elif where == "sweep" and "sweep" in doc:
        doc["sweep"][draw(st.sampled_from(["variable", "from", "to", "steps", "log", "tie"]))] = bad
    return doc


def reaches_monte_carlo(doc: dict) -> bool:
    model = doc.get("model")
    two_species = isinstance(model, dict) and model.get("name") == "two-species"
    computation, estimator = doc.get("computation"), doc.get("estimator")
    return two_species and (computation in ("ei-exact", "ei-both") or estimator == "exact")


@given(documents())
@example(
    {
        "schema_version": 1,
        "model": {"name": "decay-confounder", "sigma_t": 0.4, "sigma_x": 0.2, "alpha": 3.0, "x_hat": 1.0},
        "computation": "eigen",
        "theta": [0.4],
    }
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_any_config_keeps_the_cli_contract(doc):
    assume(not reaches_monte_carlo(doc))
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = pathlib.Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(config), "--output", str(out)])
        assert code in (0, 2, 3), doc
        assert "Traceback" not in err.getvalue(), doc
        if code != 0:
            assert not out.exists(), doc
            return
        lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines[1:] if not line.startswith("#")), doc


PUBLIC_NAMES = [
    "CausalGeomError", "ChainModel", "ConstantIsotropic", "Crossing", "CrossoverScan",
    "DecayConfounderConfig", "DecayConfounderMetrics", "DegenerateDistributionError",
    "DegenerateEmbeddingError", "DegenerateModelError", "DiagonalStateDependent", "DimmerProfile",
    "DiscretePoints", "Domain", "EIReport", "EigenReport", "FullConstant", "GaussianChannel",
    "IllPosedInterventionsError", "InvalidConfigError", "MetricField", "MonteCarloSpec",
    "NumericalFailureError", "QuadratureSpec", "RegimeError", "SmoothMap", "Submanifold",
    "SweepSpec", "TwoSpeciesConfig", "UniformBox", "UseMonteCarloError",
    "antidiagonal_submanifold", "binary_switch_model", "causal_eigenvalues", "coarse_grained_ei",
    "constant_metric", "crossover_scan", "decay_confounder_metrics", "diagonal_submanifold",
    "dimmer_family", "dimmer_model", "effect_metric", "ei_exact_mc", "ei_exact_quadrature",
    "ei_geometric", "family_profile", "linear_profile", "mismatch_at", "power_profile",
    "pullback_field", "reparameterize", "two_species_model", "weber_noise", "weber_optimal_profile",
]


def test_public_surface_is_pinned():
    """The names ``causalgeom`` binds that do not start with an underscore,
    less its submodules (bound once anything imports them, so they depend
    on test order): the 54 names its ``__init__`` imports."""
    names = sorted(
        name
        for name, value in vars(causalgeom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
