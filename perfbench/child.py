"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --out DIR --spawned T
        [--setup-only] [--trace]

T is the runner's time.monotonic() just before it started this process, so
set-up is timed from the start of the interpreter.  Set-up is `import
nestlab`, config resolution and, for the training workloads, build_world.
The workload then runs through `nestlab.cli.main`.  The last stdout line
is one JSON object with the timings; the runner checks the outputs.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _import_nestlab():
    """Import nestlab from this checkout's sources, with every layer."""
    if not os.path.isfile(os.path.join(workloads.SRC, "nestlab", "__init__.py")):
        raise SystemExit(f"no nestlab sources under {workloads.SRC}")
    sys.path.insert(0, workloads.SRC)
    import importlib

    import nestlab

    if not os.path.abspath(nestlab.__file__).startswith(workloads.SRC + os.sep):
        raise SystemExit(f"imported nestlab from {nestlab.__file__}, not from {workloads.SRC}")
    for layer in ("cli", "verify"):
        importlib.import_module(f"nestlab.{layer}")


def _build(workload, seed, out_dir):
    """Resolve the workload's config and build its world; returns the
    config path, or None for a workload without a config."""
    from nestlab.cli import load_config
    from nestlab.synthdata import WorldSpec, build_world

    config = workloads.config_for(workload, seed)
    if config is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    resolved = load_config(path)
    known = {f.name for f in dataclasses.fields(WorldSpec)}
    spec = {k: tuple(v) if isinstance(v, list) else v for k, v in resolved["world"].items() if k in known}
    build_world(WorldSpec(**spec))
    return path


def _env_stamp():
    import platform

    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    pins = {k: os.environ.get(k) for k in workloads.PINNED_ENV}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": pins,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    _import_nestlab()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        config_path = _build(args.workload, args.seed, args.out)
        setup_end = time.monotonic()
        result = {"setup_s": setup_end - args.spawned}
        if not args.setup_only:
            from nestlab.cli import main as nestlab_main

            argv = workloads.cli_argv(args.workload, config_path, args.out)
            captured = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = nestlab_main(argv)
            except Exception:
                # an operation that raises is a failed operation, not a
                # failed benchmark: report it like a non-zero exit
                rc = 1
                result["error"] = traceback.format_exc()
            result["wall_s"] = time.perf_counter() - t0
            result["rc"] = rc
            result["stdout"] = captured.getvalue()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["restored"] = tracer.restored()
        result["trace"] = tracer.table()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["env"] = _env_stamp()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
