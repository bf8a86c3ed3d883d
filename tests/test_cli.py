"""Command line driver: configs, artifacts, determinism, exit codes."""

import itertools
import json
import math
import pathlib
import sys

import numpy as np
import pytest
import yaml

from causalgeom import cli
from causalgeom.cli import MODELS, _resolve_config, _resolve_model, main
from causalgeom.errors import InvalidConfigError
from causalgeom.manifold import crossover_scan

MINI = {
    "schema_version": 1,
    "model": {"name": "dimmer", "epsilon": 0.5, "delta": 0.5},
    "computation": "ei-both",
    "units": "bits",
}

SCAN = {
    "schema_version": 1,
    "model": {"name": "two-species", "epsilon": 0.01, "delta": 0.01},
    "computation": "crossover-scan",
    "submanifolds": ["diagonal"],
    "sweep": {"variable": "delta", "tie": ["epsilon"], "from": 1e-3, "to": 0.1, "steps": 5, "log": True},
    "units": "bits",
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def run_into(tmp_path, doc, sub="out", extra=()):
    out = tmp_path / sub
    code = main(["run", write_config(tmp_path, doc), "--output", str(out), *extra])
    return code, out


def test_list_models_names(capsys):
    assert main(["list-models"]) == 0
    text = capsys.readouterr().out
    for name in (
        "dimmer",
        "dimmer-family",
        "dimmer-weber",
        "binary-switch",
        "two-species",
        "decay-confounder",
    ):
        assert name in text


def test_list_models_json(capsys):
    assert main(["list-models", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["models"]) == 6
    names = {m["name"] for m in doc["models"]}
    assert "two-species" in names and all("params" in m for m in doc["models"])


def test_eigen_prints_descending_eigenvalues(capsys):
    assert main(["eigen", "--model", "two-species", "--theta", "0.3,0.7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split()[1]) for line in lines]
    assert len(values) == 2
    assert values[0] > values[1]


def test_eigen_decay_confounder_reports_both_metrics(capsys):
    code = main(
        ["eigen", "--model", "decay-confounder", "--theta", "0.5", "--param", "sigma_t=0.05"]
    )
    assert code == 0
    out = dict(line.split() for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["h_caus"]) == pytest.approx(400.0, rel=1e-12)
    assert float(out["h_stat"]) != float(out["h_caus"])


def _eigen_values(capsys) -> dict[str, float]:
    lines = capsys.readouterr().out.strip().splitlines()
    return {name: float(value) for name, value in (line.split() for line in lines)}


EIGEN_PINS = [
    pytest.param(
        ["--model", "two-species", "--theta", "0.3,0.7"],
        {"lambda_1": 3.8181819581788048, "lambda_2": 0.047893925385086966},
        id="two-species",
    ),
    pytest.param(["--model", "dimmer", "--theta", "0.4"], {"lambda_1": 1.0}, id="dimmer"),
    pytest.param(
        ["--model", "dimmer", "--param", "profile=power", "--theta", "0.4"],
        {"lambda_1": 0.64000000000000001},
        id="dimmer-power",
    ),
    pytest.param(
        ["--model", "dimmer-family", "--param", "a=2", "--theta", "0.4"],
        {"lambda_1": 0.48535304591157863},
        id="dimmer-family",
    ),
    pytest.param(["--model", "dimmer-weber", "--theta", "0.4"], {"lambda_1": 1.0376628178232923}, id="dimmer-weber"),
    pytest.param(
        ["--model", "decay-confounder", "--theta", "0.5"],
        {"theta": 0.5, "h_caus": 399.99999999999994, "h_stat": 400.25127244996975, "h_stat_series": 400.25121184250162},
        id="decay-confounder",
    ),
]


@pytest.mark.parametrize("args, expected", EIGEN_PINS)
def test_eigen_prints_the_pinned_values(capsys, args, expected):
    """Each model with an eigen computation, through every field's point call."""
    assert main(["eigen", *args]) == 0
    out = _eigen_values(capsys)
    assert list(out) == list(expected)
    for name, value in expected.items():
        assert out[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_eigen_skewed_two_species_has_one_zero_eigenvalue(capsys):
    """The skewed coupling's pencil is rank one at the diagonal point; the
    sign of the round-off second eigenvalue is not pinned."""
    args = ["eigen", "--model", "two-species", "--param", "matrix=[[1.0,0.8],[0.7,1.0]]", "--theta", "0.5,0.5"]
    assert main(args) == 0
    out = _eigen_values(capsys)
    assert list(out) == ["lambda_1", "lambda_2"]
    assert out["lambda_1"] == pytest.approx(8.3202746811977768, rel=1e-12, abs=0.0)
    assert abs(out["lambda_2"]) <= 1e-12 * out["lambda_1"]


@pytest.mark.parametrize("param", ["delta=1e300", "epsilon=1e-200"])
def test_two_species_noise_whose_square_leaves_the_floats_exits_2(capsys, param):
    """delta=1e300 squares to inf and epsilon=1e-200 to 0, and the metrics
    divide by those squares: a config error naming the key, not a traceback
    or a NaN eigenvalue."""
    code = main(["eigen", "--model", "two-species", "--theta", "0.3,0.7", "--param", param])
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert code == 2 and out == ""
    assert line.startswith("config error:") and param.split("=")[0] in line


_SCALES = [  # (model, key) of every noise scale, and the confounder's alpha
    (name, key)
    for name, keys in (
        ("dimmer", ("epsilon", "delta")),
        ("dimmer-family", ("epsilon", "delta")),
        ("dimmer-weber", ("epsilon0", "delta", "floor")),
        ("binary-switch", ("epsilon", "delta")),
        ("two-species", ("epsilon", "delta")),
        ("decay-confounder", ("sigma_t", "sigma_x", "alpha")),
    )
    for key in keys
]


@pytest.mark.parametrize("value", ["5e-324", "1e-300", "1e-160", "1e300"])
@pytest.mark.parametrize("name, key", _SCALES)
def test_a_scale_whose_square_leaves_the_floats_exits_2(tmp_path, capsys, name, key, value):
    """One rule refuses every scale: positive with a finite, nonzero square
    whose reciprocal is finite too (1e-160 squares to a subnormal).
    A run exits 2 naming the key before it makes its output directory, and
    so does eigen, with no traceback and no output."""
    entry = MODELS[name]
    doc = {"schema_version": 1, "model": {"name": name, key: float(value)}, "computation": entry.computations[0]}
    code, out = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    want = f"{key} must be positive with a finite, nonzero square, got {float(value)}"
    assert code == 2 and not out.exists()
    assert err.startswith("config error:") and want in err and "Traceback" not in err
    if entry.eigen is None:
        return
    theta = ",".join(["0.5"] * entry.dim)
    code = main(["eigen", "--model", name, "--theta", theta, "--param", f"{key}={value}"])
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert code == 2 and out == ""
    assert line.startswith("config error:") and want in line


@pytest.mark.parametrize("value", ["1e-12", "5e-324"])
def test_a_weber_rate_whose_exponential_overflows_exits_2(tmp_path, capsys, value):
    """The Weber profile divides by e^(1/r) - 1, which overflows for r below
    1/ln(DBL_MAX), about 1.409e-3. A run exits 2 naming r before it makes its
    output directory, and so does eigen, with no traceback and no output."""
    want = f"rate parameter r must be at least 0.001409, as e^(1/r) overflows below it, got {float(value)}"
    doc = {"schema_version": 1, "model": {"name": "dimmer-weber", "r": float(value)}, "computation": "ei-exact"}
    code, out = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("config error:") and want in err and "Traceback" not in err
    code = main(["eigen", "--model", "dimmer-weber", "--theta", "0.4", "--param", f"r={value}"])
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert code == 2 and out == ""
    assert line.startswith("config error:") and want in line


@pytest.mark.parametrize("computation", ["ei-exact", "ei-both"])
def test_a_weber_intervention_noise_past_the_float_range_exits_3(tmp_path, capsys, computation):
    """dimmer-weber at delta 1e12: the exact kernel's padded box carries the
    profile past the float range. One line on stderr names that range, with
    no RuntimeWarning (an error under the repo's filters) and no output."""
    doc = {"schema_version": 1, "model": {"name": "dimmer-weber", "delta": 1.0e12}, "computation": computation}
    code, out = run_into(tmp_path, doc)
    [line] = capsys.readouterr().err.splitlines()
    assert code == 3 and not out.exists()
    assert line == "numeric error: the effect map is not finite on the padded parameter range [-8e+12, 8e+12]"


@pytest.mark.parametrize("where", ["config", "output"])
def test_a_path_component_too_long_for_the_file_system_exits_2(tmp_path, capsys, where):
    """A 300-character component as the config path or the --output path is
    refused by the file system; the run exits 2 naming the path, with no
    traceback."""
    long = tmp_path / ("a" * 300)
    config = str(long) + ".yaml" if where == "config" else write_config(tmp_path, MINI)
    output = tmp_path / "out" if where == "config" else long / "out"
    code = main(["run", config, "--output", str(output)])
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert code == 2 and out == ""
    assert line.startswith("config error:") and str(long) in line and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if where == "config" else ["config.yaml"])


def test_two_species_with_fewer_time_points_than_parameters_exits_2(tmp_path, capsys):
    """One time point for two parameters makes g singular at every node."""
    doc = dict(MINI, model={"name": "two-species", "n_points": 1}, computation="ei-geom")
    code, out = run_into(tmp_path, doc)
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2 and line == "config error: model two-species n_points must be at least 2, got 1"
    assert not out.exists()


def test_run_writes_results_and_manifest(tmp_path):
    code, out = run_into(tmp_path, MINI)
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ei_exact_bits,ei_geom_bits"
    exact, geom = (float(v) for v in lines[1].split(","))
    assert exact > 0 > geom
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema_version"] == 1
    assert manifest["config"]["models"][0]["epsilon"] == 0.5
    assert "tool_version" in manifest


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = run_into(tmp_path, MINI, "a")
    _, out2 = run_into(tmp_path, MINI, "b")
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_manifest_round_trip(tmp_path):
    _, out1 = run_into(tmp_path, MINI, "a")
    out2 = tmp_path / "b"
    code = main(["run", str(out1 / "manifest.json"), "--output", str(out2)])
    assert code == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_units_flag_converts_values(tmp_path):
    _, out_bits = run_into(tmp_path, MINI, "bits")
    _, out_nats = run_into(tmp_path, MINI, "nats", extra=("--units", "nats"))
    bits = float(
        (out_bits / "results.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    )
    nats = float(
        (out_nats / "results.csv").read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    )
    assert nats == pytest.approx(bits * math.log(2.0), rel=1e-12)


def test_thread_count_does_not_change_bytes(tmp_path):
    doc = dict(SCAN, computation="ei-geom", submanifolds=[])
    _, out1 = run_into(tmp_path, doc, "one", extra=("--threads", "1"))
    _, out2 = run_into(tmp_path, doc, "three", extra=("--threads", "3"))
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_thread_count_does_not_change_bytes_when_columns_share_a_model(tmp_path):
    """ei-both evaluates its exact and geometric columns on one model per
    sweep value; the pool's threads must not mix those models up, even when
    they switch far more often than by default."""
    doc = dict(MINI, sweep={"variable": "epsilon", "tie": ["delta"], "from": 0.1, "to": 0.5, "steps": 6})
    _, out1 = run_into(tmp_path, doc, "one", extra=("--threads", "1"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, out2 = run_into(tmp_path, doc, "three", extra=("--threads", "3"))
    finally:
        sys.setswitchinterval(interval)
    rows = (out1 / "results.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "epsilon,ei_exact_bits,ei_geom_bits" and len(rows) == 7
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_a_crossover_scan_builds_one_model_per_evaluated_value(tmp_path, monkeypatch):
    """All three curves at a grid value, and both curves at a refinement
    midpoint, evaluate one model built for that value. A midpoint that a
    later bisection visits again evaluates only the curve not yet evaluated
    there, on a model built again: no model outlives its visit, and no
    (curve, value) is evaluated twice."""
    entry = MODELS["two-species"]
    built, called = [], []

    def build(p):
        built.append(p["delta_t"])
        return entry.build(p)

    def scan(curves, sweep):
        def counted(label, fn):
            return lambda v: called.append((label, v)) or fn(v)

        return crossover_scan([(label, counted(label, fn)) for label, fn in curves], sweep)

    monkeypatch.setitem(MODELS, "two-species", entry._replace(build=build))
    monkeypatch.setattr(cli, "crossover_scan", scan)
    doc = dict(
        SCAN,
        model={"name": "two-species", "epsilon": 0.02, "delta": 0.02},
        submanifolds=["diagonal", "antidiagonal"],
        sweep={"variable": "delta_t", "from": 0.02, "to": 50.0, "steps": 7, "log": True},
    )
    code, out = run_into(tmp_path, doc)
    assert code == 0 and "#crossing" in (out / "results.csv").read_text(encoding="utf-8")
    # a visit is a run of calls at one value: a grid value, or a bisection midpoint
    values = [v for _, v in called]
    visits = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    assert built == visits
    assert len(set(called)) == len(called)
    sizes = [len(list(run)) for _, run in itertools.groupby(values)]
    assert sizes[:7] == [3] * 7 and set(sizes[7:]) == {1, 2}


@pytest.mark.parametrize(
    "doc, key",
    [
        (dict(MINI, computation="eigen", theta=[True]), "theta"),
        (dict(MINI, computation="ei-geom", model={"name": "two-species", "matrix": [[True, 0], [0, 1]]}), "matrix"),
    ],
    ids=["theta", "matrix"],
)
def test_boolean_array_elements_exit_2_naming_the_key(tmp_path, capsys, doc, key):
    code, out = run_into(tmp_path, doc)
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2 and line.startswith("config error:") and key in line and "True" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep",
    [
        {"variable": "theta", "from": 0.2, "to": 0.8, "steps": 3},
        {"variable": "epsilon", "tie": ["theta"], "from": 0.2, "to": 0.8, "steps": 3},
    ],
    ids=["variable", "tie"],
)
@pytest.mark.parametrize("computation", ["ei-geom", "ei-both", "crossover-scan"])
def test_a_theta_sweep_outside_eigen_exits_2(tmp_path, capsys, computation, sweep):
    """Only eigen reads theta; elsewhere a theta sweep would repeat one row."""
    code, out = run_into(tmp_path, dict(MINI, computation=computation, sweep=sweep))
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2 and line.startswith("config error:") and "theta" in line
    assert not out.exists()


def test_crossover_scan_csv_shape(tmp_path):
    code, out = run_into(tmp_path, SCAN)
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,ei_2d_bits,ei_subA_bits"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    crossings = [l for l in lines[1:] if l.startswith("#crossing,")]
    assert len(data_rows) == 5
    assert len(crossings) == 1
    first = data_rows[0].split(",")
    assert float(first[0]) == pytest.approx(1e-3)
    assert float(first[1]) > float(first[2])  # full model wins at low noise


def test_sweep_column_prepends_variable(tmp_path):
    doc = {
        "schema_version": 1,
        "model": {"name": "dimmer", "epsilon": 0.5, "delta": 0.5},
        "computation": "ei-geom",
        "sweep": {"variable": "epsilon", "from": 0.3, "to": 0.6, "steps": 3},
    }
    code, out = run_into(tmp_path, doc)
    assert code == 0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,ei_bits"
    assert len(lines) == 4


def test_unknown_model_exits_2_with_list(tmp_path, capsys):
    doc = dict(MINI, model={"name": "perpetuum-mobile"})
    code, _ = run_into(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "two-species" in err and "binary-switch" in err


def test_invalid_configs_exit_2(tmp_path):
    bad = [
        dict(MINI, schema_version=99),
        dict(MINI, computation="ei-psychic"),
        dict(MINI, units="furlongs"),
        dict(MINI, sweep={"variable": "epsilon", "from": 0.1, "to": 0.2, "steps": 1}),
        dict(MINI, extra_key=1),
        dict(MINI, model={"name": "dimmer", "wattage": 60}),
        {"schema_version": 1, "computation": "ei-exact"},
    ]
    for k, doc in enumerate(bad):
        code, _ = run_into(tmp_path, doc, f"bad{k}")
        assert code == 2, f"config {k} should be rejected: {doc}"


def test_missing_config_file_exits_2():
    assert main(["run", "/nonexistent/nowhere.yaml"]) == 2


def test_numeric_failure_exits_3_and_names_the_point(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "model": {"name": "decay-confounder", "sigma_t": 0.4},
        "computation": "eigen",
        "sweep": {"variable": "theta", "from": 0.2, "to": 0.8, "steps": 3},
    }
    code, _ = run_into(tmp_path, doc)
    assert code == 3
    assert "grid point 0.2" in capsys.readouterr().err


def test_steep_decay_confounder_exits_3_without_a_traceback(tmp_path, capsys):
    """Newton overshoots the root of the observational mean at this point; the
    bracketed root gives h_stat, and the run stops at the series, which is
    out of its regime at sigma_t / sigma_x = 2: exit 3 with a message."""
    doc = {
        "schema_version": 1,
        "model": {"name": "decay-confounder", "sigma_t": 0.4, "sigma_x": 0.2, "alpha": 3.0, "x_hat": 1.0},
        "computation": "eigen",
        "theta": [0.4],
    }
    code, out = run_into(tmp_path, doc)
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert "series expansion valid for sigma_t/sigma_x <= 0.1" in err and "Traceback" not in err


def test_monte_carlo_fallback_is_logged(tmp_path, caplog, monkeypatch):
    """Quadrature refuses the two-dimensional model; the switch to Monte Carlo
    is logged with the model label and the refusal (a stub stands in for MC)."""
    from causalgeom import cli
    from causalgeom.ei import EIReport

    monkeypatch.setattr(cli, "ei_exact_mc", lambda *args: EIReport(1.0, "monte-carlo", "stub"))
    doc = {"schema_version": 1, "model": {"name": "two-species"}, "computation": "ei-exact"}
    with caplog.at_level("INFO", logger="causalgeom.cli"):
        code, out = run_into(tmp_path, doc)
    assert code == 0
    assert (out / "results.csv").read_text().splitlines()[1] == "1.4426950408889634"
    [record] = caplog.records
    message = record.getMessage()
    assert message.startswith("two-species:") and "Monte Carlo" in message
    assert "requires a scalar parameter" in message


def test_plot_flag_writes_svg_when_matplotlib_present(tmp_path):
    pytest.importorskip("matplotlib")
    doc = dict(SCAN, computation="ei-geom", submanifolds=[])
    code, out = run_into(tmp_path, doc, extra=("--plot",))
    assert code == 0
    svg = out / "plot.svg"
    assert svg.is_file() and svg.stat().st_size > 0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "model, computation, estimator",
    [
        ("binary-switch", "ei-exact", "geometric"),
        ("decay-confounder", "ei-exact", None),
        ("decay-confounder", "ei-geom", None),
    ],
)
def test_unsupported_model_computation_pairs_exit_2(tmp_path, capsys, model, computation, estimator):
    doc = {"schema_version": 1, "model": {"name": model}, "computation": computation}
    if estimator is not None:
        doc["estimator"] = estimator
    code, _ = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err


def test_eigen_theta_must_match_the_parameter_dimension(tmp_path, capsys):
    doc = {"schema_version": 1, "model": {"name": "dimmer"}, "computation": "eigen", "theta": [0.3, 0.5]}
    code, _ = run_into(tmp_path, doc, "two")
    assert code == 2 and "theta has 2 components" in capsys.readouterr().err
    assert main(["eigen", "--model", "dimmer", "--theta", "0.3,0.5"]) == 2
    code, out = run_into(tmp_path, dict(doc, theta=[0.3]), "one")
    assert code == 0
    header, row = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert header == "lambda_1" and len(row.split(",")) == 1


def test_eigen_on_a_model_without_one_is_refused(tmp_path, capsys):
    """The eigen command and a run config refuse binary-switch with the same
    message, before any output directory is made."""
    message = (
        "config error: model 'binary-switch' has no eigen computation; "
        "it supports: ei-exact, crossover-scan\n"
    )
    assert main(["eigen", "--model", "binary-switch", "--theta", "0.4"]) == 2
    assert capsys.readouterr() == ("", message)
    doc = {"schema_version": 1, "model": {"name": "binary-switch"}, "computation": "eigen"}
    code, out = run_into(tmp_path, doc)
    assert code == 2 and capsys.readouterr().err == message
    assert not out.exists()


def test_non_numeric_model_matrix_is_a_config_error(tmp_path, capsys):
    with pytest.raises(InvalidConfigError):
        _resolve_model({"name": "two-species", "matrix": [[1, "x"], [0, 1]]})
    with pytest.raises(InvalidConfigError):
        _resolve_model({"name": "two-species", "matrix": [1.0, 0.0]})
    doc = {
        "schema_version": 1,
        "model": {"name": "two-species", "matrix": [[1, "x"], [0, 1]]},
        "computation": "ei-geom",
    }
    code, _ = run_into(tmp_path, doc)
    assert code == 2 and "matrix" in capsys.readouterr().err


def test_failed_run_leaves_no_output_directory(tmp_path):
    failing = [
        {"model": {"name": "binary-switch"}, "computation": "ei-geom", "estimator": "geometric"},
        {"model": {"name": "decay-confounder"}, "computation": "ei-exact"},
        {"model": {"name": "dimmer"}, "computation": "eigen", "theta": [0.3, 0.5]},
        {"model": {"name": "two-species", "matrix": [[1, "x"], [0, 1]]}, "computation": "ei-geom"},
        {
            "model": {"name": "decay-confounder", "sigma_t": 0.4},
            "computation": "eigen",
            "sweep": {"variable": "theta", "from": 0.2, "to": 0.8, "steps": 3},
        },
    ]
    for k, doc in enumerate(failing):
        code, out = run_into(tmp_path, {"schema_version": 1, **doc}, f"bad{k}")
        assert code in (2, 3)
        assert not out.exists(), f"config {k} left {out} behind"


def test_readme_config_example_resolves():
    section = README.read_text(encoding="utf-8").split("### Config schema", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = _resolve_config(yaml.safe_load(example))
    assert cfg["models"][0]["name"] in MODELS


def test_readme_lists_each_models_capabilities():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in MODELS:
            rows[cells[0]] = cells[1:]
    assert set(rows) == set(MODELS)
    for name, entry in MODELS.items():
        assert rows[name] == [", ".join(entry.estimators) or "none", ", ".join(entry.computations)]


def _single_value(out):
    return float((out / "results.csv").read_text(encoding="utf-8").splitlines()[1])


def test_computation_name_picks_the_estimator(tmp_path, capsys):
    base = {
        "schema_version": 1,
        "model": {"name": "dimmer", "epsilon": 0.1, "delta": 0.1},
        "units": "nats",
    }
    code, out = run_into(tmp_path, dict(base, computation="ei-exact"), "exact")
    assert code == 0
    assert _single_value(out) == pytest.approx(0.7925357289435773, abs=1e-12)
    code, out = run_into(tmp_path, dict(base, computation="ei-geom"), "geom")
    assert code == 0
    assert _single_value(out) == pytest.approx(0.53707, abs=1e-5)
    capsys.readouterr()
    contradictions = [
        (dict(base, computation="ei-geom", estimator="exact"), ()),
        (dict(base, computation="ei-exact", estimator="geometric"), ()),
        (dict(base, computation="ei-exact"), ("--estimator", "geometric")),
        (dict(base, computation="ei-geom"), ("--estimator", "exact")),
    ]
    for k, (doc, extra) in enumerate(contradictions):
        code, out = run_into(tmp_path, doc, f"bad{k}", extra=extra)
        err = capsys.readouterr().err
        assert code == 2 and "config error" in err and "Traceback" not in err
        assert not out.exists()


def test_computations_follow_the_estimators():
    assert MODELS["binary-switch"].computations == ("ei-exact", "crossover-scan")
    assert MODELS["decay-confounder"].computations == ("eigen",)
    assert "ei-geom" in MODELS["dimmer"].computations


def test_output_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    from causalgeom import cli

    def no_work(*args):
        raise AssertionError("evaluated despite an unusable output path")

    monkeypatch.setattr(cli, "_evaluate", no_work)
    target = tmp_path / "afile"
    target.write_text("keep me\n", encoding="utf-8")
    for output in (target, target / "sub"):
        code = main(["run", write_config(tmp_path, MINI), "--output", str(output)])
        err = capsys.readouterr().err
        assert code == 2 and "config error" in err and "Traceback" not in err
    assert target.read_text(encoding="utf-8") == "keep me\n"


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exits_2_without_traceback(tmp_path, capsys, where):
    doc = {"schema_version": 1, "model": {"name": "two-species"}, "computation": "ei-exact"}
    if where == "config":
        doc["seed"] = -1
    code, out = run_into(tmp_path, doc, extra=("--seed", "-1") if where == "flag" else ())
    err = capsys.readouterr().err
    assert code == 2 and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        dict(MINI, seed=float("inf")),
        dict(MINI, threads=float("inf")),
        dict(SCAN, model={"name": "two-species", "n_points": float("inf")}),
        dict(SCAN, sweep={"variable": "delta", "from": 0.0, "to": 0.1, "steps": 3, "log": True}),
    ],
    ids=["infinite-seed", "infinite-threads", "infinite-integer-parameter", "log-sweep-from-zero"],
)
def test_infinite_integers_and_a_log_sweep_from_zero_exit_2(tmp_path, capsys, doc):
    code, out = run_into(tmp_path, doc)
    assert code == 2 and "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        (dict(MINI, seed=2.7), "seed"),
        (dict(MINI, threads=1.9), "threads"),
        (dict(SCAN, sweep=dict(SCAN["sweep"], steps=2.9)), "sweep steps"),
        (dict(SCAN, model={"name": "two-species", "n_points": 3.5}), "n_points"),
    ],
    ids=["seed", "threads", "sweep-steps", "n-points"],
)
def test_non_integral_integers_exit_2_naming_the_key(tmp_path, capsys, doc, key):
    code, out = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and key in err and "must be an integer" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        dict(SCAN, submanifolds="diagonal"),
        dict(SCAN, sweep=dict(SCAN["sweep"], tie="epsilon")),
    ],
    ids=["submanifolds", "sweep-tie"],
)
def test_a_bare_string_for_a_name_list_exits_2(tmp_path, capsys, doc):
    code, out = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and "must be a list of names" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "threads, extra, source",
    [
        (-3, (), "config key threads"),
        (0, (), "config key threads"),
        (None, ("--threads", "0"), "--threads"),
        (None, ("--threads", "-2"), "--threads"),
    ],
    ids=["config-negative", "config-zero", "flag-zero", "flag-negative"],
)
def test_thread_count_below_one_exits_2_naming_its_source(tmp_path, capsys, threads, extra, source):
    doc = MINI if threads is None else dict(MINI, threads=threads)
    code, out = run_into(tmp_path, doc, extra=extra)
    err = capsys.readouterr().err
    assert code == 2 and f"{source} must be at least 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        (dict(MINI, seed=True), "seed"),
        (dict(MINI, seed=False), "seed"),
        (dict(MINI, threads=True), "threads"),
        (dict(SCAN, sweep=dict(SCAN["sweep"], steps=True)), "sweep steps"),
        (dict(SCAN, model={"name": "two-species", "n_points": True}), "n_points"),
    ],
    ids=["seed-true", "seed-false", "threads", "sweep-steps", "n-points"],
)
def test_boolean_integers_exit_2_naming_the_key(tmp_path, capsys, doc, key):
    code, out = run_into(tmp_path, doc)
    err = capsys.readouterr().err
    assert code == 2 and key in err and ("True" in err or "False" in err)
    assert "Traceback" not in err and not out.exists()
