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
import math
import os
import pathlib
import sys
import threading
import typing as tp

import numpy as np
import yaml

from . import __version__
from .ei import (
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
    values = causal_eigenvalues(model.g, model.h, theta)
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
    profile = power_profile(p["exponent"]) if p["profile"] == "power" else linear_profile()
    return dimmer_model(profile, p["epsilon"], p["delta"])


def _build_family(p: dict) -> ChainModel:
    return dimmer_family(p["a"], p["epsilon"], p["delta"])


def _build_weber(p: dict) -> ChainModel:
    noise = weber_noise(p["epsilon0"], floor=p["floor"])
    return dimmer_model(weber_optimal_profile(p["r"]), noise, p["delta"])


def _build_binary(p: dict) -> ChainModel:
    return binary_switch_model(p["epsilon"], p["delta"])


def _fields(p: dict) -> dict:
    """A model's parameters without its name; the config table has typed them."""
    return {k: v for k, v in p.items() if k != "name"}


def _build_two_species(p: dict) -> ChainModel:
    return two_species_model(TwoSpeciesConfig(**_fields(p)))


def _build_decay(p: dict):
    return decay_confounder_metrics(DecayConfounderConfig(**_fields(p)))


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


class Key(tp.NamedTuple):
    """One config key: its type, its constraint and its default.

    ``kind`` is ``int``, ``float`` (finite; ``shape`` makes it an array, and
    ``(-1,)`` a list of any length), ``bool``, ``name``, ``names`` (a list of
    names), or a mapping read by its own table: ``sweep``, ``model`` or
    ``models`` (a list of models). ``choices`` limits a value or each name;
    ``minimum`` bounds a number below. An absent or null key takes
    ``default``, unless it is ``required``.
    """

    kind: str
    default: tp.Any = None
    required: bool = False
    choices: tuple = ()
    minimum: int | None = None
    shape: tuple[int, ...] = ()


_WORDS = {
    "int": "an integer",
    "float": "a finite number",
    "bool": "true or false",
    "name": "a name",
    "names": "a list of names",
}


def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _parse(key: Key, value):
    """``value`` as ``key.kind``; TypeError or ValueError if it is not one.

    An integer is refused when it is 2.7, not truncated to 2; a boolean is
    never read as a number, alone or as an array element; a bare string is
    not a list of names.
    """
    if isinstance(value, bool) != (key.kind == "bool") or (key.shape and _has_bool(value)):
        raise TypeError
    if key.kind == "int":
        number = int(value)
        if not isinstance(value, str) and number != value:
            raise ValueError
        return number
    if key.kind == "float":
        arr = np.asarray(value if key.shape else float(value), dtype=float)
        want = key.shape
        if want == (-1,):  # a lone number is a list of one
            arr = np.atleast_1d(arr)
            want = arr.shape[:1]
        if arr.shape != want or not all(map(math.isfinite, arr.flat)):
            raise ValueError
        return arr.tolist()
    if key.kind == "bool" or (key.kind == "name" and isinstance(value, str)):
        return value
    if key.kind == "names" and isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise TypeError


def _read(key: Key, value, label: str):
    """``value`` read as ``key`` says; an InvalidConfigError names ``label``."""
    if key.kind == "sweep":
        return _walk(_SWEEP, value, "sweep")
    if key.kind == "model":
        return _resolve_model(value)
    if key.kind == "models":
        if not isinstance(value, list) or not value:
            raise InvalidConfigError(f"{label} must be a non-empty list of models, got {value!r}")
        return [_resolve_model(m) for m in value]
    try:
        out = _parse(key, value)
    except (TypeError, ValueError, OverflowError):
        words = _WORDS[key.kind]
        if key.shape:
            words = f"a {key.shape} array of finite numbers"
        if key.shape == (-1,):
            words = "a list of finite numbers"
        raise InvalidConfigError(f"{label} must be {words}, got {value!r}") from None
    outside = [v for v in (out if key.kind == "names" else [out]) if v not in key.choices]
    if key.choices and outside:
        choices = ", ".join(map(str, key.choices))
        raise InvalidConfigError(f"{label} must be one of {choices}; got {outside[0]!r}")
    if key.minimum is not None and out < key.minimum:
        raise InvalidConfigError(f"{label} must be at least {key.minimum}, got {out}")
    return out


def _walk(table: dict[str, Key], doc, where: str) -> dict:
    """Each key of ``table`` read from the mapping ``doc``; errors name ``where`` and the key."""
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"{where} must be a mapping of keys to values, got {doc!r}")
    out = {}
    for name, key in table.items():
        if doc.get(name) is not None:
            out[name] = _read(key, doc[name], f"{where} {name}")
        elif key.required:
            raise InvalidConfigError(f"{where} {name} is required")
        else:
            out[name] = key.default
    unknown = [str(k) for k in doc if k not in table]
    if unknown:
        raise InvalidConfigError(f"unknown {where} {', '.join(unknown)}; known: {', '.join(table)}")
    return out


_MODEL_NAME = Key("name", required=True, choices=tuple(MODELS))
_PARAMS = {  # every other model parameter is a finite float
    "profile": Key("name", choices=("linear", "power")),
    "n_points": Key("int", minimum=2),
    "matrix": Key("float", shape=(2, 2)),
}


_MODEL_KEYS = {  # each model's name, then its parameters with their MODELS defaults
    name: {
        "name": _MODEL_NAME,
        **{k: _PARAMS.get(k, Key("float"))._replace(default=v) for k, v in m.defaults.items()},
    }
    for name, m in MODELS.items()
}


def _resolve_model(entry) -> dict:
    name = entry.get("name") if isinstance(entry, dict) else None
    if isinstance(name, str) and name in MODELS:
        return _walk(_MODEL_KEYS[name], entry, f"model {name}")
    return _walk({"name": _MODEL_NAME}, entry, "model")


_SWEEP = {
    "variable": Key("name", required=True),
    "from": Key("float", required=True),
    "to": Key("float", required=True),
    "steps": Key("int", required=True, minimum=2),
    "log": Key("bool", False),
    "tie": Key("names", []),
}
_TOP = {
    "schema_version": Key("int", required=True, choices=(SCHEMA_VERSION,)),
    "model": Key("model"),
    "models": Key("models"),
    "computation": Key("name", required=True, choices=_COMPUTATIONS),
    "estimator": Key("name", choices=ESTIMATORS),  # its default follows the computation
    "sweep": Key("sweep"),
    "submanifolds": Key("names", [], choices=tuple(_SUBMANIFOLDS)),
    "theta": Key("float", shape=(-1,)),
    "output": Key("name"),
    "seed": Key("int", 0, minimum=0),
    "units": Key("name", "bits", choices=("bits", "nats")),
    "threads": Key("int", minimum=1),
    "plot": Key("bool", False),
}


def _resolve_config(doc: dict) -> dict:
    """Every key read through the table, then the rules that span several keys."""
    cfg = _walk(_TOP, doc, "config key")
    computation, sweep = cfg["computation"], cfg["sweep"]
    if sweep is not None and sweep["log"]:
        for end in ("from", "to"):
            if sweep[end] <= 0:
                raise InvalidConfigError(
                    f"sweep {end} must be above 0 when sweep log is true, got {sweep[end]}"
                )
    model = cfg.pop("model")
    if (model is None) == (cfg["models"] is None):
        raise InvalidConfigError("config needs exactly one of 'model' or 'models'")
    models = cfg["models"] = cfg["models"] or [model]
    if len(models) > 1 and computation != "crossover-scan":
        raise InvalidConfigError("multiple models are only supported for crossover-scan")

    entries = [MODELS[m["name"]] for m in models]
    geometric = all("geometric" in e.estimators for e in entries)
    implied = _IMPLIED_ESTIMATOR.get(computation)
    estimator = cfg["estimator"] = cfg["estimator"] or implied or ("geometric" if geometric else "exact")
    if implied not in (None, estimator):
        raise InvalidConfigError(f"computation {computation} uses the {implied} estimator, not {estimator}")

    if sweep is not None:
        for var in [sweep["variable"], *sweep["tie"]]:
            if var == "theta" and computation != "eigen":
                raise InvalidConfigError(f"sweep variable 'theta' is read only by eigen, not {computation}")
            if var != "theta" and not any(var in e.defaults for e in entries):
                raise InvalidConfigError(f"sweep variable {var!r} is not a model parameter")
    elif computation == "crossover-scan":
        raise InvalidConfigError("crossover-scan requires a sweep")

    if computation == "eigen":
        swept = sweep is not None and sweep["variable"] == "theta"
        _eigen_point(models[0], cfg["theta"], {"theta": sweep["from"]} if swept else {})
    else:
        needed = ESTIMATORS if computation == "ei-both" else (estimator,)
        for m, entry in zip(models, entries):
            for est in needed:
                if est not in entry.estimators:
                    raise InvalidConfigError(
                        f"model {m['name']!r} cannot compute {computation} with the {est} "
                        f"estimator; it supports: {', '.join(entry.computations)}"
                    )
        if computation != "ei-both" and cfg["submanifolds"] and (entries[0].dim != 2 or not geometric):
            raise InvalidConfigError("submanifolds need a two-parameter model with metrics")
    return cfg


def _eigen_point(model_cfg: dict, theta: list[float] | None, overrides: dict) -> list[float]:
    """The eigen point: the swept theta, else the config's, else the model default.

    Raises InvalidConfigError when the model has no eigen computation, when
    there is no point, or when its length is not the model's parameter count.
    """
    name = model_cfg["name"]
    entry = MODELS[name]
    if entry.eigen is None:
        raise InvalidConfigError(
            f"model {name!r} has no eigen computation; it supports: {', '.join(entry.computations)}"
        )
    point = [overrides["theta"]] if "theta" in overrides else theta or entry.eigen_theta
    if point is None:
        raise InvalidConfigError("eigen computation needs a theta point")
    if len(point) != entry.dim:
        raise InvalidConfigError(
            f"theta has {len(point)} components but model {name!r} has {entry.dim} parameter(s)"
        )
    return point


def _thread_count(flag: int | None, cfg: dict) -> int:
    """--threads, else the config key, else the CPU count."""
    if flag is not None:
        return _read(_TOP["threads"], flag, "--threads")
    return cfg["threads"] or os.cpu_count() or 1


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _instantiate(model_cfg: dict, overrides: dict) -> tp.Any:
    """The model at a sweep point; each swept value is read as its key says."""
    name = model_cfg["name"]
    keys = _MODEL_KEYS[name]
    swept = {k: _read(keys[k], v, f"model {name} {k}") for k, v in overrides.items() if k in model_cfg}
    return MODELS[name].build({**model_cfg, **swept})


def _exact_report(model: ChainModel, seed: int, in_sweep: bool) -> EIReport:
    try:
        return ei_exact_quadrature(
            model.x_set, model.noise_xt, model.ch_ty, check_convergence=not in_sweep
        )
    except UseMonteCarloError as exc:
        logger.info("%s: exact quadrature falls back to Monte Carlo: %s", model.label, exc)
        return ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, MonteCarloSpec(seed=seed))


def _columns(cfg: dict) -> list[tuple[str, tp.Callable[[dict], EIReport]]]:
    """(label, sweep overrides -> EIReport) for each value column of an EI computation.

    Every column is a curve that sweeps, ``ei-both`` and crossover scans
    evaluate alike. Columns on the same model share its build at a sweep
    value: each thread keeps the models of the overrides it evaluated last,
    so a point's columns, and a crossover scan's curves at one value, build
    each model once. No model crosses threads or outlives the run. A
    submanifold column builds its line once, here, for every evaluation.
    """
    seed, in_sweep = cfg["seed"], cfg["sweep"] is not None
    estimate = {
        "exact": lambda model: _exact_report(model, seed, in_sweep),
        "geometric": lambda model: ei_geometric(model.g, model.h, model.theta_domain),
    }
    models = cfg["models"]
    last = threading.local()

    def model_at(index: int, overrides: dict) -> tp.Any:
        if getattr(last, "overrides", None) != overrides:
            last.overrides, last.models = dict(overrides), {}
        if index not in last.models:
            last.models[index] = _instantiate(models[index], overrides)
        return last.models[index]

    def column(index: int, fn: tp.Callable[[tp.Any], EIReport]) -> tp.Callable[[dict], EIReport]:
        return lambda overrides: fn(model_at(index, overrides))

    if cfg["computation"] == "ei-both":
        return [("exact", column(0, estimate["exact"])), ("geom", column(0, estimate["geometric"]))]
    multi = len(models) > 1 or bool(cfg["submanifolds"])
    fn = estimate[cfg["estimator"]]
    columns = [(MODELS[m["name"]].label if multi else "", column(i, fn)) for i, m in enumerate(models)]
    for name in cfg["submanifolds"]:
        factory, label = _SUBMANIFOLDS[name]
        columns.append((label, column(0, lambda model, sub=factory(): coarse_grained_ei(model, sub))))
    return columns


def _eigen_row(cfg: dict, overrides: dict) -> dict[str, float]:
    model_cfg = cfg["models"][0]
    theta = _eigen_point(model_cfg, cfg["theta"], overrides)
    eigen = MODELS[model_cfg["name"]].eigen
    return eigen(_instantiate(model_cfg, overrides), np.asarray(theta, dtype=float))


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
            [getattr(rep, units) if rep is not None else float("nan") for rep in point]
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


def _write_results(path: pathlib.Path, header: list[str], rows: list[list], comments: list[str]) -> None:
    lines = [",".join(header)]
    lines += [",".join(f"{float(c):.17g}" for c in row) for row in rows]
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
    cfg = _resolve_config(doc)
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
    theta = _read(_TOP["theta"], args.theta.split(","), "--theta")
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
    p_run.add_argument("--threads", type=int, help="worker threads (overrides config)")
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
    except (InvalidConfigError, yaml.YAMLError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CausalGeomError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a sweep grid too large to allocate
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
