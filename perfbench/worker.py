"""One workload in one fresh process: set up, then a closed loop of passes.

Started by ``run.py`` with BLAS threads pinned to 1.  One caller runs the
workload's fixed op list pass after pass until ``--seconds`` have elapsed
(the pass in flight is finished, so every pass is whole) and prints one JSON
line with the raw op timings.  With ``--trace 1`` the first half of the time
runs untraced and the second half traced, so the tracing overhead is
measured in the same process.  With ``--probe`` it stops as soon as the
first op is ready and prints ``ready``: ``run.py`` times that as set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def src_digest() -> str:
    """sha256 over the package sources (bytecode caches excluded)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_pass(ops, sink, tracer=None):
    record = {"ops": []}
    if tracer is not None:
        tracer.reset()
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                out = op.run()
            error = None
        except Exception as exc:  # the op's failure is a result, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        record["ops"].append([op.name, dt * 1e3, error])
    record["s"] = time.perf_counter() - t_pass
    if tracer is not None:
        record["layers"] = tracer.readout()
    return record


def run_phase(workload, first_pass, seconds, tracer=None):
    sink = io.StringIO()
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        ops = workload.ops(first_pass + len(passes))
        passes.append(run_pass(ops, sink, tracer))
        sink.seek(0)
        sink.truncate()
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads  # imports staticlab

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.ops(0)  # generating the first pass is part of set-up
    if args.probe:
        print("ready", flush=True)
        return 0

    import numpy
    import scipy

    digest = src_digest()
    result = {"numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": sys.version.split()[0], "src_sha256": digest,
              "known_defects": workloads.KNOWN_DEFECTS}
    if args.trace:
        import tracer as tracing

        result["untraced"] = run_phase(workload, 0, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced"] = run_phase(workload, len(result["untraced"]), args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        result["trace_missing"] = tracer.missing
    else:
        result["untraced"] = run_phase(workload, 0, args.seconds)
    result["src_unchanged"] = src_digest() == digest
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
