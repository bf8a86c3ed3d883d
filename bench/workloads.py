"""The benchmark's workloads: seeded inputs, the ops of one pass, their checks.

A CLI workload runs ``causalgeom run`` once per bundled config. Each run
evaluates ``count`` points of that config's bundled grid, ``stride`` points
apart; the seed picks the offset, so every seed does the same amount of work.
Crossover scans keep every committed crossing's grid bracket, so their
``#crossing`` lines must reproduce the committed ones.

Only the standard library is imported at module level: a pass's set-up time
covers importing ``causalgeom`` and building the first model, nothing else.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import typing as tp

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"  # out/<config>/results.csv as committed at the baseline

LN2 = math.log(2.0)
EI_GATE_NATS = 1e-8  # the golden gate; measured drift is about 1e-14 relative
GRID_REL = 1e-12  # a subset's sweep value against the bundled grid value
CROSSING_REL = 1e-8  # refined crossing location and bracket


@dataclasses.dataclass(frozen=True)
class Subset:
    """``count`` points of a bundled config's grid, ``stride`` apart."""

    config: str
    count: int
    stride: int = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subsets: tuple[Subset, ...]  # one CLI run each
    parallel: bool = False  # the work spreads over the CLI pool; otherwise one thread does it


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-quad",
            "exact-quadrature sweep of fig1b spread over the CLI thread pool; the quadrature kernel does the work",
            (Subset("fig1b", 6, 7),),
            parallel=True,
        ),
        Workload(
            "scan-geom",
            "geometric scans, pullbacks and eigen rows of fig3a-c, fig4a-b, appendixA; no quadrature or Monte Carlo",
            (
                # Full grids: per-point cost varies about 2.5x along the fig4
                # sweeps, so a seeded window would make the work seed-dependent.
                Subset("fig3a", 13),
                Subset("fig3b", 13),
                Subset("fig3c", 13),
                Subset("fig4a", 25),
                Subset("fig4b", 25),
                Subset("appendixA", 19),
            ),
        ),
    )
}


class Op(tp.NamedTuple):
    name: str
    run: tp.Callable[[], tp.Any]
    check: tp.Callable[[tp.Any], str | None]  # None when the output is correct


# ---------------------------------------------------------------------------
# committed results and seeded subsets
# ---------------------------------------------------------------------------


class Results(tp.NamedTuple):
    header: list[str]
    rows: list[list[float]]
    crossings: list[list[str]]  # first, second, value, lo, hi


def read_results(path: pathlib.Path) -> Results:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    crossings = [line.split(",")[1:] for line in lines[1:] if line.startswith("#crossing,")]
    return Results(lines[0].split(","), rows, crossings)


def offsets(sub: Subset) -> list[int]:
    """Offsets whose subset keeps every committed crossing's grid bracket."""
    golden = read_results(GOLDEN / f"{sub.config}.csv")
    xs = [row[0] for row in golden.rows]
    brackets = [next(i for i in range(len(xs) - 1) if xs[i] < float(c[2]) < xs[i + 1]) for c in golden.crossings]
    last = (sub.count - 1) * sub.stride
    return [
        o
        for o in range(len(xs) - last)
        if all(sub.stride == 1 and o <= i and i + 1 <= o + last for i in brackets)
    ]


def offset(sub: Subset, seed: int) -> int:
    """Seed 0 takes the first allowed offset."""
    allowed = offsets(sub)
    return allowed[seed % len(allowed)]


def _bundled(sub: Subset) -> dict:
    import yaml

    return yaml.safe_load((ROOT / "configs" / f"{sub.config}.yaml").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# set-up: import the package and build the workload's first model
# ---------------------------------------------------------------------------


def setup(workload: Workload) -> tp.Any:
    from causalgeom import cli

    doc = _bundled(workload.subsets[0])
    entry = dict(doc["model"] if "model" in doc else doc["models"][0])
    model = cli.MODELS[entry.pop("name")]
    return model.build({**model.defaults, **entry})


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def ops(workload: Workload, seed: int, out_dir: pathlib.Path, threads: int) -> list[Op]:
    """The ops of one pass; inputs are written to ``out_dir`` before timing."""
    return [_cli_op(sub, seed, out_dir / sub.config, threads) for sub in workload.subsets]


def _cli_op(sub: Subset, seed: int, out: pathlib.Path, threads: int) -> Op:
    from causalgeom import cli

    golden = read_results(GOLDEN / f"{sub.config}.csv")
    o = offset(sub, seed)
    picked = [golden.rows[o + k * sub.stride] for k in range(sub.count)]
    doc = _bundled(sub)
    doc["sweep"].update({"from": picked[0][0], "to": picked[-1][0], "steps": sub.count})
    doc["output"] = str(out)
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["run", str(config), "--output", str(out), "--seed", str(seed), "--threads", str(threads)]

    def check(code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        got = read_results(out / "results.csv")
        if got.header != golden.header or len(got.rows) != len(picked):
            return f"header or row count differs: {got.header}, {len(got.rows)} rows"
        for row, want in zip(got.rows, picked):
            if not math.isclose(row[0], want[0], rel_tol=GRID_REL):
                return f"grid value {row[0]!r} != {want[0]!r}"
            for name, a, b in zip(got.header[1:], row[1:], want[1:]):
                gate = EI_GATE_NATS / LN2 if name.endswith("_bits") else EI_GATE_NATS
                if not (a == b or abs(a - b) <= gate or (math.isnan(a) and math.isnan(b))):
                    return f"{name} at {row[0]!r}: {a!r} != {b!r}"
        if len(got.crossings) != len(golden.crossings):
            return f"{len(got.crossings)} crossings, committed {len(golden.crossings)}"
        for c, want in zip(got.crossings, golden.crossings):
            same = c[:2] == want[:2] and all(
                math.isclose(float(a), float(b), rel_tol=CROSSING_REL) for a, b in zip(c[2:], want[2:])
            )
            if not same:
                return f"crossing {c} != committed {want}"
        return None

    return Op(f"cli:{sub.config}", lambda: cli.main(argv), check)
