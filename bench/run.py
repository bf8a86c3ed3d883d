"""causalgeom benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass of the workload runs in a fresh
worker process (``worker.py``), one after another (closed loop, one client),
until ``--seconds`` is used up, with at least two passes. Set-up-only
workers then top up the passes' own set-up times to five samples. CLI runs
use as many pool threads as the process may use cores; BLAS is pinned to one
thread. Times are scaled to a nominal host speed (``speed.py``); the raw
times are printed too.

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are reported with the tracing
overhead. The last line of standard output is the result as JSON; the lines
before it give the environment and each metric's run count, median,
quartiles and upper percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = workloads.ROOT
SETUP_SAMPLES = 5  # set-up-only workers top up the passes' own set-up times
MIN_PASSES = 2  # a traced run needs an untraced and a traced pass
HARD_LIMIT_S = 165.0  # a run ends well within 180 s, even if a worker hangs
SKIPPED_DIRS = {".git", ".bench_tmp", ".bench_build", "__pycache__"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def tree_digest(root: pathlib.Path) -> str:
    """Digest of every file in the checkout that a run must leave untouched."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
        for name in sorted(filenames):
            path = pathlib.Path(dirpath, name)
            h.update(str(path.relative_to(root)).encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    return tree_digest(ROOT / "src")[:16]


class Worker:
    """Starts worker processes with BLAS pinned to one thread."""

    def __init__(self, workload: str, seed: int, tmp: pathlib.Path) -> None:
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",  # same dict and set layout in every pass
        }
        self.env.pop("CG_THREADS", None)
        self.started = 0

    def run(self, timeout: float, *flags: str) -> tuple[dict | None, float, str]:
        """(result or None on failure, seconds taken, error text)."""
        self.started += 1
        base = self.tmp / f"worker-{self.started}"
        base.mkdir(parents=True)
        result_path = base / "result.json"
        argv = [
            sys.executable, str(workloads.BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--result", str(result_path), "--out", str(base / "out"), *flags,
        ]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [*argv, "--t0", repr(t0)], cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - t0, f"worker timed out after {timeout:.0f} s"
        taken = time.monotonic() - t0
        if proc.returncode != 0 or not result_path.is_file():
            return None, taken, f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"
        return json.loads(result_path.read_text(encoding="utf-8")), taken, ""


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest whole percentile with >= 10 values above it."""
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    out = {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3, "p_hi": None}
    if n > 10:
        p = (100 * (n - 10)) // n
        if p >= 1:
            out["p_hi"] = (p, statistics.quantiles(values, n=100)[p - 1])
    return out


def report_line(name: str, unit: str, values: list[float]) -> str:
    s = summarize(values)
    p_hi = f"p{s['p_hi'][0]}={s['p_hi'][1]:.6g}" if s["p_hi"] else "p_hi=n/a(needs>10)"
    return (
        f"{name:<28} {unit:<6} n={s['n']:<3} median={s['median']:.6g} "
        f"q1={s['q1']:.6g} q3={s['q3']:.6g} {p_hi}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/causalgeom/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a causalgeom checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run then kills the running worker and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def _run(args: argparse.Namespace, tmp: pathlib.Path) -> int:
    workload = workloads.WORKLOADS[args.workload]
    ops_per_pass = len(workload.subsets)
    cores = sorted(os.sched_getaffinity(0))
    before = tree_digest(ROOT)
    worker = Worker(args.workload, args.seed, tmp)
    start = time.monotonic()

    errors: list[str] = []
    passes: list[tuple[bool, dict | None]] = []  # (traced, result)
    durations: list[float] = []
    attempted = failed = 0
    env = None
    # Untraced single-threaded passes stop only after a whole round over the
    # cores, so the median weighs every core alike.
    round_size = 1 if workload.parallel or args.trace else len(cores)
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(durations) if durations else 0.0
        if len(passes) >= MIN_PASSES and len(passes) % round_size == 0 and elapsed + typical > args.seconds:
            break
        if passes and elapsed + typical > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        flags = ["--trace"] if traced else []
        if not workload.parallel:
            # A single thread runs at the speed of the core it starts on, and
            # on a shared host the cores' speeds drift apart for tens of
            # seconds. Starting successive passes on successive cores
            # averages that out. Traced and untraced passes alternate, so
            # each kind moves on to the next core every other pass.
            turn = len(passes) // 2 if args.trace else len(passes)
            flags += ["--core", str(cores[turn % len(cores)])]
        res, taken, err = worker.run(HARD_LIMIT_S - elapsed, *flags)
        durations.append(taken)
        passes.append((traced, res))
        if res is None:
            errors.append(err)
            attempted += ops_per_pass
            failed += ops_per_pass
            continue
        env = env or res["env"]
        tree_changed = tree_digest(ROOT) != before
        for op in res["ops"]:
            attempted += 1
            error = op["error"] or ("checkout tree changed during the pass" if tree_changed else None)
            if error is not None:
                failed += 1
                errors.append(f"{op['name']}: {error}")

    plain = [r for t, r in passes if r is not None and not t]
    traced_runs = [r for t, r in passes if r is not None and t]
    setups = [{k: r[k] for k in ("setup_s", "setup_raw_s")} for r in plain]
    while len(setups) < SETUP_SAMPLES and time.monotonic() - start < HARD_LIMIT_S - 10:
        res, _, err = worker.run(10.0, "--setup-only", "--core", str(cores[len(setups) % len(cores)]))
        if res is None:
            errors.append(err)
            break
        setups.append(res)
    env = {
        **(env or {}),
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "passes": len(plain),
        "traced_passes": len(traced_runs),
    }
    print("env " + json.dumps(env, sort_keys=True))
    for err in errors:
        print(f"failed: {err}", file=sys.stderr)

    series = {"setup_s": [r["setup_s"] for r in setups], "setup_raw_s": [r["setup_raw_s"] for r in setups]}
    series.update((k, [r[k] for r in plain]) for k in ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s", "cpu_raw_s"))
    metrics: dict[str, dict] = {}
    if args.trace:
        base = statistics.median(series["wall_s"]) if series["wall_s"] else 0.0
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_share":
                values = [(r["wall_s"] - base) / base for r in traced_runs] if base else []
            else:
                values = [r["layers"][name] for r in traced_runs]
            if values:
                print(report_line(name, unit, values))
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        for name, unit in END_TO_END:
            if series[name]:
                print(report_line(name, unit, series[name]))
                metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
        # The times before scaling to the nominal host speed (speed.py).
        for name in ("setup_raw_s", "wall_raw_s", "cpu_raw_s"):
            if series[name]:
                print(report_line(name, "s", series[name]))
    print(f"ops={attempted} failed_ops={failed}")
    expected = tracing.LAYER_METRICS if args.trace else END_TO_END
    correct = failed == 0 and not errors and len(metrics) == len(expected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
