"""One benchmark pass in a fresh process; ``run.py`` starts it.

Set-up time runs from ``--t0`` (the parent's monotonic clock just before it
started this process) until ``causalgeom`` is imported and the workload's
first model is built. The pass then times its ops, closed loop, and checks
their outputs afterwards. The result is written as JSON to ``--result``.

Times are reported raw and scaled to a nominal host speed (``speed.py``):
the speed probe runs on the pass's cores right after set-up and after every
op, and each op is scaled by the mean of the probes on either side of it.
Set-up time is scaled by the probe that follows it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import speed
import workloads


# (thread count, config string) entry points, by OpenBLAS build.
_BLAS_SYMBOLS = [
    (f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
]


def _blas() -> list[dict]:
    """Version and thread count of each OpenBLAS the process has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"lib": os.path.basename(path)}
        for threads_name, config_name in _BLAS_SYMBOLS:
            try:
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            info.update(threads=threads(), config=config().decode())
            break
        found.append(info)
    return found


def _environment(threads: int) -> dict:
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas(),
        "nproc": threads,
        "cli_threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, help="scratch directory for CLI outputs")
    parser.add_argument("--core", type=int, help="core to start the pass on")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    cores = os.sched_getaffinity(0)
    if args.core is not None:
        os.sched_setaffinity(0, {args.core})

    sys.path.insert(0, str(workloads.ROOT / "src"))
    workloads.setup(workload)
    setup_raw = time.monotonic() - args.t0
    # A single-threaded pass runs on the core it starts on; a parallel one
    # keeps every core busy.
    probe_cores = sorted(cores) if workload.parallel or args.core is None else [args.core]
    probe = speed.Probe()
    probes = [probe.time(probe_cores)]
    result: dict = {"setup_s": setup_raw * speed.NOMINAL_S / probes[0], "setup_raw_s": setup_raw}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    import contextlib
    import resource

    import tracing

    # Unpinned again, the running thread stays on its core while any thread
    # the program starts may use the others.
    os.sched_setaffinity(0, cores)
    threads = len(cores)  # the CLI's --threads is nproc
    ops = workloads.ops(workload, args.seed, args.out, threads)
    tracer = tracing.Tracer() if args.trace else None
    outputs = []
    wall = cpu = wall_raw = cpu_raw = 0.0
    with tracing.install(tracer) if tracer else contextlib.nullcontext():
        for op in ops:
            if tracer:
                tracer.begin_run()
            before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            try:
                outputs.append((op.run(), None))
            except Exception as exc:  # a failed op is counted, not fatal
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            op_wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            op_cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            probes.append(probe.time(probe_cores))
            scale = 2.0 * speed.NOMINAL_S / (probes[-2] + probes[-1])
            wall, cpu = wall + op_wall * scale, cpu + op_cpu * scale
            wall_raw, cpu_raw = wall_raw + op_wall, cpu_raw + op_cpu

    records = []
    for op, (output, error) in zip(ops, outputs):
        if error is None:
            try:
                error = op.check(output)
            except (OSError, ValueError) as exc:  # e.g. a missing or malformed results.csv
                error = f"{type(exc).__name__}: {exc}"
        records.append({"name": op.name, "error": error})
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        wall_raw_s=wall_raw,
        cpu_raw_s=cpu_raw,
        probes=len(probes),
        peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        ops=records,
        env=_environment(threads),
    )
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, threads)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
