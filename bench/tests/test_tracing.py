"""Tests for the benchmark's trace wrappers.

Run from the repository root: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import causalgeom  # noqa: E402
import causalgeom.cli as cli  # noqa: E402
import causalgeom.ei as ei  # noqa: E402
import causalgeom.manifold as manifold  # noqa: E402
from causalgeom.channels import GaussianChannel  # noqa: E402
from causalgeom.errors import UseMonteCarloError  # noqa: E402
from causalgeom.geometry import MetricField  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded causalgeom module, plus the traced methods."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "causalgeom" or name.startswith("causalgeom."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls, attr in ((MetricField, "batch"), (MetricField, "__call__"), (GaussianChannel, "mean")):
        out[(cls.__name__, attr)] = cls.__dict__[attr]
    return out


def test_install_patches_every_binding_and_restores_them():
    before = _bindings()
    quad = ei.ei_exact_quadrature
    with tracing.install(tracing.Tracer()):
        assert ei.ei_exact_quadrature is not quad
        assert cli.ei_exact_quadrature is ei.ei_exact_quadrature is causalgeom.ei_exact_quadrature
        assert manifold.ei_geometric is ei.ei_geometric is cli.ei_geometric
        assert cli.crossover_scan is manifold.crossover_scan
        assert cli.dimmer_family is causalgeom.models.dimmer_family
        assert MetricField.batch is not before[("MetricField", "batch")]
    assert _bindings() == before


def test_untraced_pass_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(tracer):
        raise AssertionError("an untraced pass must not install wrappers")

    before = _bindings()
    monkeypatch.setattr(tracing, "install", refuse)
    result = tmp_path / "result.json"
    argv = ["worker.py", "--workload", "scan-geom", "--seed", "0", "--t0", "0", "--result", str(result)]
    monkeypatch.setattr(sys, "argv", [*argv, "--out", str(tmp_path / "out")])
    assert worker.main() == 0
    doc = json.loads(result.read_text())
    assert "layers" not in doc and all(op["error"] is None for op in doc["ops"])
    assert _bindings() == before


def test_wrapper_reraises_the_original_exception():
    tracer = tracing.Tracer()
    raised = UseMonteCarloError("tensor grid infeasible")

    def refuse(x_set, ch_xt, ch_ty, spec=None, check_convergence=True):
        raise raised

    wrapped = tracing._wrap(tracer, "ei.quad", refuse, tracing._quad_attrs)
    with pytest.raises(UseMonteCarloError) as info:
        wrapped(None, None, None)
    assert info.value is raised
    assert info.value.__cause__ is None and info.value.__context__ is None
    assert tracing.layer_metrics(tracer, threads=1)["ei.quad.refused"] == 1


def test_cli_monte_carlo_fallback_still_runs_under_tracing(monkeypatch):
    small = ei.MonteCarloSpec(outer_samples=400, inner_samples=16, batches=8)
    monkeypatch.setattr(cli, "MonteCarloSpec", lambda seed: ei.MonteCarloSpec(**{**vars(small), "seed": seed}))
    model = causalgeom.two_species_model(causalgeom.TwoSpeciesConfig(epsilon=1e-2, delta=1e-2))
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        report = cli._exact_report(model, seed=0, in_sweep=True)
    assert report.method == "exact-mc"
    metrics = tracing.layer_metrics(tracer, threads=1)
    assert metrics["ei.quad.refused"] == 1 and metrics["ei.mc.calls"] == 1
    assert metrics["ei.mc.samples"] == 400 * 16 * 2


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = tracing.Span(0, "cli.main", None, 0, 1, 0.0, 10.0)
    kids = [
        tracing.Span(1, "ei.quad", 0, 0, 2, 1.0, 5.0),
        tracing.Span(2, "ei.quad", 0, 0, 3, 2.0, 6.0),
        tracing.Span(3, "ei.quad", 0, 0, 2, 8.0, 12.0),
    ]
    selfs = tracing.self_times([parent, *kids])
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert all(v >= 0.0 for v in selfs.values())


def test_pool_thread_spans_are_tied_to_their_run(tmp_path):
    config = workloads.ROOT / "configs" / "appendixA.yaml"
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        run = tracer.begin_run()
        assert cli.main(["run", str(config), "--output", str(tmp_path), "--threads", "2"]) == 0
    (root,) = [s for s in tracer.spans if s.name == "cli.main"]
    pooled = [s for s in tracer.spans if s.thread != root.thread]
    assert pooled, "the eigen sweep should run on pool threads"
    assert threading.get_ident() == root.thread
    assert all(s.run == run for s in tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    for s in pooled:
        while s.parent is not None and by_id[s.parent].thread != root.thread:
            s = by_id[s.parent]
        assert s.parent == root.id
    assert all(v >= 0.0 for v in tracing.self_times(tracer.spans).values())
    metrics = tracing.layer_metrics(tracer, threads=2)
    assert metrics["models.build.calls"] == 19
    assert metrics["cli.self_s"] >= 0.0


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.LAYER_METRICS)
