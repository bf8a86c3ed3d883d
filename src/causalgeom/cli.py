"""Config-driven experiment runner.

Reads a declarative YAML config (or a previously written manifest.json),
evaluates the requested effective-information computation over an optional
parameter sweep, and writes ``results.csv`` plus ``manifest.json`` into the
output directory. Reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 numeric error (the failing grid
point is named on standard error).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import pathlib
import sys
import typing as tp

import numpy as np
import yaml

from . import __version__
from .ei import (
    _LN2,
    EIReport,
    MonteCarloSpec,
    ei_exact_mc,
    ei_exact_quadrature,
    ei_geometric,
)
from .errors import CausalGeomError, InvalidConfigError, UseMonteCarloError
from .geometry import causal_eigenvalues
from .manifold import SweepSpec, coarse_grained_ei, crossover_scan
from .models import (
    ChainModel,
    DecayConfounderConfig,
    TwoSpeciesConfig,
    antidiagonal_submanifold,
    binary_switch_model,
    decay_confounder_metrics,
    diagonal_submanifold,
    dimmer_family,
    dimmer_model,
    linear_profile,
    power_profile,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

_SUBMANIFOLDS = {
    "diagonal": (diagonal_submanifold, "subA"),
    "antidiagonal": (antidiagonal_submanifold, "subB"),
}


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------


ESTIMATORS = ("exact", "geometric")


def _pencil_eigenvalues(model: ChainModel, theta: np.ndarray) -> dict[str, float]:
    """Eigenvalues of the pencil (g, h) at theta, one column per parameter axis."""
    values = causal_eigenvalues(model.g, model.h, theta).eigenvalues
    return {f"lambda_{i + 1}": float(v) for i, v in enumerate(values)}


def _confounder_metrics(model, theta: np.ndarray) -> dict[str, float]:
    """Causal and statistical intervention metrics of the confounded decay at theta."""
    t = float(theta[0])
    return {
        "theta": t,
        "h_caus": float(model.h_caus(t)[0, 0]),
        "h_stat": float(model.h_stat(t)[0, 0]),
        "h_stat_series": float(model.h_stat_series(t)),
    }


class ModelEntry(tp.NamedTuple):
    """A built-in model and what the runner can compute with it."""

    build: tp.Callable[[dict], tp.Any]
    defaults: dict
    description: str
    label: str  # curve label when one CSV holds several curves
    dim: int = 1  # parameter dimension: the length of an eigen theta
    estimators: tuple[str, ...] = ESTIMATORS  # EI estimators that are valid for the model
    eigen: tp.Callable[[tp.Any, np.ndarray], dict[str, float]] | None = _pencil_eigenvalues
    eigen_theta: tuple[float, ...] | None = None  # eigen point when the config names none

    @property
    def computations(self) -> tuple[str, ...]:
        exact, geom = "exact" in self.estimators, "geometric" in self.estimators
        allowed = (exact, geom, exact and geom, self.eigen is not None, exact or geom)
        return tuple(c for c, ok in zip(_COMPUTATIONS, allowed) if ok)


def _build_dimmer(p: dict) -> ChainModel:
    kind = p["profile"]
    if kind == "linear":
        profile = linear_profile()
    elif kind == "power":
        profile = power_profile(float(p["exponent"]))
    else:
        raise InvalidConfigError(f"unknown dimmer profile {kind!r} (linear or power)")
    return dimmer_model(profile, float(p["epsilon"]), float(p["delta"]))


def _build_family(p: dict) -> ChainModel:
    return dimmer_family(float(p["a"]), float(p["epsilon"]), float(p["delta"]))


def _build_weber(p: dict) -> ChainModel:
    noise = weber_noise(float(p["epsilon0"]), floor=float(p["floor"]))
    return dimmer_model(weber_optimal_profile(float(p["r"])), noise, float(p["delta"]))


def _build_binary(p: dict) -> ChainModel:
    return binary_switch_model(float(p["epsilon"]), float(p["delta"]))


def _build_two_species(p: dict) -> ChainModel:
    cfg = TwoSpeciesConfig(
        epsilon=float(p["epsilon"]),
        delta=float(p["delta"]),
        delta_t=float(p["delta_t"]),
        n_points=_integer(p["n_points"], "model parameter n_points"),
        matrix=np.asarray(p["matrix"], dtype=float),
    )
    return two_species_model(cfg)


def _build_decay(p: dict):
    cfg = DecayConfounderConfig(
        sigma_t=float(p["sigma_t"]),
        sigma_x=float(p["sigma_x"]),
        alpha=float(p["alpha"]),
        x_hat=float(p["x_hat"]),
    )
    return decay_confounder_metrics(cfg)


MODELS: dict[str, ModelEntry] = {
    "dimmer": ModelEntry(
        _build_dimmer,
        {"epsilon": 0.03, "delta": 0.03, "profile": "linear", "exponent": 2.0},
        "one-dimensional response profile with constant output noise",
        label="dimmer",
    ),
    "dimmer-family": ModelEntry(
        _build_family,
        {"a": 0.0, "epsilon": 0.03, "delta": 0.03},
        "exponential-family response profile indexed by a (a=0 is linear)",
        label="dimmer_family",
    ),
    "dimmer-weber": ModelEntry(
        _build_weber,
        {"r": 0.1, "epsilon0": 0.03, "delta": 0.003, "floor": 1e-3},
        "optimal profile for output noise proportional to the output level",
        label="dimmer_weber",
    ),
    "binary-switch": ModelEntry(
        _build_binary,
        {"epsilon": 1e-4, "delta": 1e-4},
        "two-point intervention set on the linear response",
        label="binary_switch",
        # the switch carries the continuous dimmer's metrics, which say
        # nothing about two interventions
        estimators=("exact",),
        eigen=None,
    ),
    "two-species": ModelEntry(
        _build_two_species,
        {
            "epsilon": 1e-2,
            "delta": 1e-2,
            "delta_t": 1.0,
            "n_points": 3,
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
        },
        "sum of two exponential decays sampled at N time points",
        label="2d",
        dim=2,
    ),
    "decay-confounder": ModelEntry(
        _build_decay,
        {"sigma_t": 0.05, "sigma_x": 1.0, "alpha": 1.0, "x_hat": 1.0},
        "confounded decay estimate; compares causal and statistical metrics",
        label="decay_confounder",
        estimators=(),
        eigen=_confounder_metrics,
        eigen_theta=(0.5,),
    ),
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "schema_version",
    "model",
    "models",
    "computation",
    "estimator",
    "sweep",
    "submanifolds",
    "theta",
    "output",
    "seed",
    "units",
    "threads",
    "plot",
}
_COMPUTATIONS = ("ei-exact", "ei-geom", "ei-both", "eigen", "crossover-scan")
_IMPLIED_ESTIMATOR = {"ei-exact": "exact", "ei-geom": "geometric"}


def _load_config(path: str) -> dict:
    p = pathlib.Path(path)
    if not p.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".json":
        doc = json.loads(text)
        if isinstance(doc, dict) and "config" in doc:  # a manifest round-trip
            doc = doc["config"]
    else:
        doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise InvalidConfigError("config must be a mapping of keys to values")
    return doc


def _integer(value, key: str) -> int:
    """An integral config value as an int: 2.7 is refused, not truncated to 2."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"{key} must be an integer, got {value!r}") from exc
    if not isinstance(value, str) and number != value:
        raise InvalidConfigError(f"{key} must be an integer, got {value!r}")
    return number


def _names(value, key: str) -> list[str]:
    """A list of names; a bare string is refused rather than split into letters."""
    if not isinstance(value, list):
        raise InvalidConfigError(f"{key} must be a list of names, got {value!r}")
    return [str(v) for v in value]


def _resolve_model(entry: dict) -> dict:
    if not isinstance(entry, dict) or "name" not in entry:
        raise InvalidConfigError("each model needs at least a 'name' key")
    name = entry["name"]
    if name not in MODELS:
        known = ", ".join(sorted(MODELS))
        raise InvalidConfigError(f"unknown model {name!r}; built-in models: {known}")
    params = dict(MODELS[name].defaults)
    for key, value in entry.items():
        if key == "name":
            continue
        if key not in params:
            raise InvalidConfigError(f"model {name!r} has no parameter {key!r}")
        default = params[key]
        try:
            if isinstance(default, bool) or isinstance(value, bool):
                raise TypeError("boolean is not a valid parameter value")
            if isinstance(default, int):
                params[key] = _integer(value, f"model parameter {key}")
            elif isinstance(default, float):
                params[key] = float(value)
            elif isinstance(default, list):
                arr = np.asarray(value, dtype=float)
                if arr.shape != np.shape(default) or not np.all(np.isfinite(arr)):
                    shape = "x".join(str(n) for n in np.shape(default))
                    raise ValueError(f"expected a {shape} array of finite numbers")
                params[key] = arr.tolist()
            else:
                params[key] = value
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfigError(f"model parameter {key}={value!r}: {exc}") from exc
    return {"name": name, **params}


def _resolve_config(doc: dict) -> dict:
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InvalidConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    if ("model" in doc) == ("models" in doc):
        raise InvalidConfigError("config needs exactly one of 'model' or 'models'")
    models = [_resolve_model(m) for m in (doc.get("models") or [doc["model"]])]

    computation = doc.get("computation")
    if computation not in _COMPUTATIONS:
        raise InvalidConfigError(
            f"computation must be one of {', '.join(_COMPUTATIONS)}; got {computation!r}"
        )
    if len(models) > 1 and computation != "crossover-scan":
        raise InvalidConfigError("multiple models are only supported for crossover-scan")

    entries = [MODELS[m["name"]] for m in models]
    geometric = all("geometric" in e.estimators for e in entries)
    implied = _IMPLIED_ESTIMATOR.get(computation)
    estimator = doc.get("estimator", implied or ("geometric" if geometric else "exact"))
    if estimator not in ESTIMATORS:
        raise InvalidConfigError("estimator must be 'exact' or 'geometric'")
    if implied not in (None, estimator):
        raise InvalidConfigError(f"computation {computation} uses the {implied} estimator, not {estimator}")

    units = doc.get("units", "bits")
    if units not in ("bits", "nats"):
        raise InvalidConfigError("units must be 'bits' or 'nats'")

    sweep = doc.get("sweep")
    if sweep is not None:
        required = {"variable", "from", "to", "steps"}
        if not isinstance(sweep, dict) or not required <= set(sweep):
            raise InvalidConfigError("sweep needs keys variable, from, to, steps")
        extra = set(sweep) - required - {"log", "tie"}
        if extra:
            raise InvalidConfigError(f"unknown sweep keys: {sorted(extra)}")
        steps = _integer(sweep["steps"], "sweep steps")
        if steps < 2:
            raise InvalidConfigError("sweep steps must be at least 2")
        sweep = {
            "variable": str(sweep["variable"]),
            "from": float(sweep["from"]),
            "to": float(sweep["to"]),
            "steps": steps,
            "log": bool(sweep.get("log", False)),
            "tie": _names(sweep.get("tie", []), "sweep tie"),
        }
        for var in [sweep["variable"], *sweep["tie"]]:
            ok = any(var in m or var == "theta" for m in models)
            if not ok:
                raise InvalidConfigError(f"sweep variable {var!r} is not a model parameter")

    subs = _names(doc.get("submanifolds", []), "submanifolds")
    for s in subs:
        if s not in _SUBMANIFOLDS:
            raise InvalidConfigError(
                f"unknown submanifold {s!r}; available: {', '.join(_SUBMANIFOLDS)}"
            )
    if computation == "crossover-scan" and sweep is None:
        raise InvalidConfigError("crossover-scan requires a sweep")

    theta = doc.get("theta")
    if theta is not None:
        theta = [float(t) for t in np.atleast_1d(theta)]

    seed = _integer(doc.get("seed") or 0, "seed")
    if seed < 0:
        raise InvalidConfigError(f"seed must be a non-negative integer, got {seed}")

    if computation == "eigen":
        _check_eigen(models[0], theta, sweep)
    else:
        needed = ESTIMATORS if computation == "ei-both" else (estimator,)
        for m, entry in zip(models, entries):
            for est in needed:
                if est not in entry.estimators:
                    raise InvalidConfigError(
                        f"model {m['name']!r} cannot compute {computation} with the {est} "
                        f"estimator; it supports: {', '.join(entry.computations)}"
                    )
        if computation != "ei-both" and subs and (entries[0].dim != 2 or not geometric):
            raise InvalidConfigError("submanifolds need a two-parameter model with metrics")

    return {
        "schema_version": SCHEMA_VERSION,
        "models": models,
        "computation": computation,
        "estimator": estimator,
        "sweep": sweep,
        "submanifolds": subs,
        "theta": theta,
        "output": doc.get("output"),
        "seed": seed,
        "units": units,
        "threads": _integer(doc["threads"], "threads") if doc.get("threads") is not None else None,
        "plot": bool(doc.get("plot", False)),
    }


def _check_eigen(model_cfg: dict, theta: list[float] | None, sweep: dict | None) -> None:
    """Refuse an eigen computation the model lacks or a theta of the wrong length."""
    name = model_cfg["name"]
    entry = MODELS[name]
    if entry.eigen is None:
        raise InvalidConfigError(
            f"model {name!r} has no eigen computation; it supports: {', '.join(entry.computations)}"
        )
    if sweep is not None and sweep["variable"] == "theta":
        theta = [sweep["from"]]
    theta = theta or entry.eigen_theta
    if theta is None:
        raise InvalidConfigError("eigen computation needs a theta point")
    if len(theta) != entry.dim:
        raise InvalidConfigError(
            f"theta has {len(theta)} components but model {name!r} has {entry.dim} parameter(s)"
        )


def _thread_count(flag: int | None, cfg: dict) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("CG_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidConfigError(f"CG_THREADS must be an integer, got {env!r}") from exc
    if cfg["threads"] is not None:
        return max(1, cfg["threads"])
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _instantiate(model_cfg: dict, overrides: dict) -> tp.Any:
    params = {**model_cfg, **{k: v for k, v in overrides.items() if k in model_cfg}}
    return MODELS[model_cfg["name"]].build(params)


def _exact_report(model: ChainModel, seed: int, in_sweep: bool) -> EIReport:
    try:
        return ei_exact_quadrature(
            model.x_set, model.ch_xt, model.ch_ty, check_convergence=not in_sweep
        )
    except UseMonteCarloError as exc:
        logger.info("%s: exact quadrature falls back to Monte Carlo: %s", model.label, exc)
        return ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, MonteCarloSpec(seed=seed))


def _to_units(nats: float, units: str) -> float:
    return nats if units == "nats" else nats / _LN2


def _columns(cfg: dict) -> list[tuple[str, tp.Callable[[dict], EIReport]]]:
    """(label, sweep overrides -> EIReport) for each value column of an EI computation.

    Each call builds its own model, so every column is an independent curve
    that sweeps, ``ei-both`` and crossover scans evaluate alike.
    """
    seed, in_sweep = cfg["seed"], cfg["sweep"] is not None
    estimate = {
        "exact": lambda model: _exact_report(model, seed, in_sweep),
        "geometric": lambda model: ei_geometric(model.g, model.h, model.theta_domain),
    }

    def column(model_cfg: dict, fn: tp.Callable[[tp.Any], EIReport]) -> tp.Callable[[dict], EIReport]:
        return lambda overrides: fn(_instantiate(model_cfg, overrides))

    models = cfg["models"]
    if cfg["computation"] == "ei-both":
        return [
            ("exact", column(models[0], estimate["exact"])),
            ("geom", column(models[0], estimate["geometric"])),
        ]
    multi = len(models) > 1 or bool(cfg["submanifolds"])
    fn = estimate[cfg["estimator"]]
    columns = [(MODELS[m["name"]].label if multi else "", column(m, fn)) for m in models]
    for name in cfg["submanifolds"]:
        factory, label = _SUBMANIFOLDS[name]
        restricted = column(models[0], lambda model, f=factory: coarse_grained_ei(model, f()))
        columns.append((label, restricted))
    return columns


def _eigen_row(cfg: dict, overrides: dict) -> dict[str, float]:
    model_cfg = cfg["models"][0]
    entry = MODELS[model_cfg["name"]]
    theta = [overrides["theta"]] if "theta" in overrides else cfg["theta"] or entry.eigen_theta
    return entry.eigen(_instantiate(model_cfg, overrides), np.asarray(theta, dtype=float))


def _evaluate(cfg: dict, threads: int) -> tuple[list[str], list[list], list[str]]:
    """Returns (header, rows, crossing comment lines)."""
    units = cfg["units"]
    sweep = cfg["sweep"]
    spec = None
    if sweep is not None:
        spec = SweepSpec.from_range(
            sweep["variable"], sweep["from"], sweep["to"], sweep["steps"], log=sweep["log"]
        )

    def each_point(fn: tp.Callable[[dict], tp.Any]) -> list:
        if spec is None:
            return [fn({})]
        return _parallel(lambda v: fn(_overrides(sweep, v)), spec.values, threads)

    comments: list[str] = []
    if cfg["computation"] == "eigen":
        found = each_point(lambda overrides: _eigen_row(cfg, overrides))
        header = list(found[0])
        rows = [list(row.values()) for row in found]
    else:
        columns = _columns(cfg)
        header = [f"ei_{label}_{units}" if label else f"ei_{units}" for label, _ in columns]
        if cfg["computation"] == "crossover-scan":
            curves = [
                (label or "ei", lambda v, fn=fn: fn(_overrides(sweep, v))) for label, fn in columns
            ]
            scan = crossover_scan(curves, spec)
            reports = [list(point) for point in zip(*(scan.curves[label] for label, _ in curves))]
            comments = [
                f"#crossing,{c.first},{c.second},{c.value:.17g},{c.bracket[0]:.17g},{c.bracket[1]:.17g}"
                for c in scan.crossings
            ]
        else:
            reports = each_point(lambda overrides: [fn(overrides) for _, fn in columns])
        rows = [
            [_to_units(rep.nats, units) if rep is not None else float("nan") for rep in point]
            for point in reports
        ]
    if spec is not None and spec.variable not in header:
        header = [spec.variable] + header
        rows = [[float(v)] + row for v, row in zip(spec.values, rows)]
    return header, rows, comments


def _overrides(sweep: dict, value: float) -> dict:
    out = {sweep["variable"]: value}
    for tied in sweep["tie"]:
        out[tied] = value
    return out


def _parallel(fn: tp.Callable[[float], list], values: np.ndarray, threads: int) -> list[list]:
    """Evaluate per sweep value, assembling results in grid order."""

    def guarded(v: float) -> list:
        try:
            return fn(v)
        except CausalGeomError as exc:
            raise type(exc)(f"at grid point {v:.17g}: {exc}") from exc

    points = [float(v) for v in values]
    if threads <= 1 or len(points) <= 1:
        return [guarded(v) for v in points]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(guarded, v) for v in points]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _write_results(path: pathlib.Path, header: list[str], rows: list[list], comments: list[str]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_format_cell(c) for c in row) for row in rows]
    lines += comments
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_manifest(path: pathlib.Path, cfg: dict) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": cfg["seed"],
        "config": cfg,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_plot(path: pathlib.Path, header: list[str], rows: list[list], log_x: bool) -> None:
    try:
        import matplotlib

        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plot requested but matplotlib is not installed; skipping", file=sys.stderr)
        return
    data = np.asarray(rows, dtype=float)
    fig, ax = plt.subplots(figsize=(6, 4))
    if data.shape[1] == 1:
        ax.plot(data[:, 0], marker="o")
        ax.set_ylabel(header[0])
    else:
        for k in range(1, data.shape[1]):
            ax.plot(data[:, 0], data[:, k], marker=".", label=header[k])
        ax.set_xlabel(header[0])
        ax.legend()
        if log_x:
            ax.set_xscale("log")
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _load_config(args.config)
    for key in ("output", "seed", "units", "estimator"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    if args.plot:
        doc["plot"] = True
    try:
        cfg = _resolve_config(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfigError(str(exc)) from exc
    if not cfg["output"]:
        raise InvalidConfigError("no output directory (config key 'output' or --output)")
    out_dir = pathlib.Path(cfg["output"])
    blocking = next((p for p in (out_dir, *out_dir.parents) if p.exists() and not p.is_dir()), None)
    if blocking is not None:
        raise InvalidConfigError(f"output directory {out_dir} cannot be made: {blocking} is a file")
    threads = _thread_count(args.threads, cfg)

    header, rows, comments = _evaluate(cfg, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_results(out_dir / "results.csv", header, rows, comments)
    _write_manifest(out_dir / "manifest.json", cfg)
    if cfg["plot"]:
        _write_plot(out_dir / "plot.svg", header, rows, bool(cfg["sweep"] and cfg["sweep"]["log"]))
    print(out_dir / "results.csv")
    return 0


def _cmd_list_models(args: argparse.Namespace) -> int:
    if args.as_json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "models": [
                {"name": name, "params": entry.defaults, "description": entry.description}
                for name, entry in sorted(MODELS.items())
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    width = max(len(name) for name in MODELS)
    for name, entry in sorted(MODELS.items()):
        params = " ".join(f"{k}={v}" for k, v in entry.defaults.items())
        print(f"{name:<{width}}  {entry.description}")
        print(f"{'':<{width}}  parameters: {params}")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    params: dict = {}
    for item in args.param or []:
        if "=" not in item:
            raise InvalidConfigError(f"--param expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        params[key] = yaml.safe_load(raw)
    model_cfg = _resolve_model({"name": args.model, **params})
    try:
        theta = [float(t) for t in args.theta.split(",")]
    except ValueError as exc:
        raise InvalidConfigError(f"--theta expects comma-separated numbers: {exc}") from exc
    _check_eigen(model_cfg, theta, None)
    for name, value in _eigen_row({"models": [model_cfg], "theta": theta}, {}).items():
        print(f"{name} {value:.17g}")
    return 0


def main(argv: tp.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="causalgeom",
        description="effective information and causal geometry experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config and write results.csv + manifest.json")
    p_run.add_argument("config", help="YAML config or a previously written manifest.json")
    p_run.add_argument("--output", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="Monte Carlo seed (overrides config)")
    p_run.add_argument("--threads", type=int, help="worker threads (overrides CG_THREADS and config)")
    p_run.add_argument("--units", choices=("bits", "nats"), help="report units (overrides config)")
    p_run.add_argument("--estimator", choices=("exact", "geometric"), help="EI estimator for curves")
    p_run.add_argument("--plot", action="store_true", help="also write plot.svg (needs matplotlib)")

    p_list = sub.add_parser("list-models", help="list built-in models")
    p_list.add_argument("--json", action="store_true", dest="as_json", help="machine-readable listing")

    p_eigen = sub.add_parser("eigen", help="print causal eigenvalues at a parameter point")
    p_eigen.add_argument("--model", required=True)
    p_eigen.add_argument("--theta", required=True, help="comma-separated parameter point")
    p_eigen.add_argument("--param", action="append", help="model parameter as key=value (repeatable)")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "list-models": _cmd_list_models, "eigen": _cmd_eigen}
    try:
        return handlers[args.command](args)
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (yaml.YAMLError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CausalGeomError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
