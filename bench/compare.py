"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<workload>-<seed>.json``, that
contains the last line ``run.py`` printed. Runs with the same file name in
both directories form a pair. For every workload and metric this prints each
side's median and quartiles, the share of pairs the change won, and a verdict:

- ``gain``: the change won at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- ``same`` otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(directory: pathlib.Path) -> dict[str, dict]:
    return {p.stem: json.loads(p.read_text(encoding="utf-8").strip().splitlines()[-1]) for p in directory.glob("*.json")}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs won by the change); the lists are paired by index."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    if share >= 0.9 and sign * (pm - cm) > p3 - p1:
        return "gain", share
    if bound is not None:
        if sign * (cm - pm) > bound * abs(pm):
            return "regression", share
        all_better = all(sign * (p - c) > 0 for p in parent for c in change)
        if pm and (p3 - p1) / abs(pm) > bound and not all_better:
            return "unresolved", share
    return "same", share


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (_load(pathlib.Path(d)) for d in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("no run is present in both directories", file=sys.stderr)
        return 2
    workloads = sorted({name.rsplit("-", 1)[0] for name in pairs})
    for workload in workloads:
        keys = [k for k in pairs if k.rsplit("-", 1)[0] == workload]
        failed = sum(parent[k]["failed"] for k in keys), sum(change[k]["failed"] for k in keys)
        print(f"{workload}: {len(keys)} pairs, failed ops parent={failed[0]} change={failed[1]}")
        for name in parent[keys[0]]["metrics"]:
            m = meta.get(name, {"better": "lower", "unit": "?"})
            ps = [parent[k]["metrics"][name]["value"] for k in keys]
            cs = [change[k]["metrics"][name]["value"] for k in keys]
            result, share = verdict(ps, cs, m["better"], m.get("bound"))
            (p1, pm, p3), (c1, cm, c3) = _quartiles(ps), _quartiles(cs)
            print(
                f"  {name:<28} {m['unit']:<6} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  won {share:.0%}  {result}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
