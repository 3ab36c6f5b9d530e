"""staticlab benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh worker
process (``worker.py``) with BLAS threads pinned to 1: one caller, closed
loop, whole passes over the workload's fixed op list until ``--seconds``
have elapsed.  Set-up time is taken from separate fresh interpreters that
stop when the first op is ready.  With ``--trace 0`` the result line holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer ones.  The last line of standard output is the JSON result; the
lines before it print every metric by name with its unit and sample count,
the failed ops by name, and the environment.  The exit code is 0 whenever a
result was printed, also when an op failed; the result's ``correct`` field
says whether every failure was a known defect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 7  # fresh interpreters timed for set-up; the median is reported
TIME_LIMIT = 170.0  # seconds; the whole invocation must end within 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str, code: int = 2) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_sha(root: str) -> str:
    """HEAD of the checkout if it is a git work tree (read directly, no git process)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_cmd(args, workdir, probe=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    return cmd + (["--probe"] if probe else [])


def probe_setup(args, workdir, env, deadline):
    """Wall time from starting a fresh interpreter to its first op being ready."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(args, workdir, probe=True), cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def end_to_end(result, setup):
    passes = result["untraced"]
    pass_s = [p["s"] for p in passes]
    q = quartiles(pass_s)
    sq = quartiles(setup)
    # Percentiles are taken within each pass, then the median over passes.
    # Pooling all passes would put the median of an even op list on the
    # slowest sample of one op and the fastest of the next, both extremes.
    op_ms = [[op[1] for op in p["ops"]] for p in passes]
    samples = (f"median over {len(passes)} passes of {len(op_ms[0])} ops each, "
               f"{sum(map(len, op_ms))} ops in all")
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters, "
                                              f"q1 {sq[0]:.4f} q3 {sq[2]:.4f}"),
        "pass_s": (q[1], f"median of {len(pass_s)} passes, q1 {q[0]:.4f} q3 {q[2]:.4f}"),
        "op_p50_ms": (statistics.median(statistics.median(ms) for ms in op_ms), samples),
        "op_p90_ms": (statistics.median(percentile90(ms) for ms in op_ms), samples),
        "peak_rss_mb": (result["peak_rss_mb"], "peak of the workload process"),
    }


def per_layer(result, names):
    traced = result["traced"]
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            untraced = statistics.median(p["s"] for p in result["untraced"])
            value = statistics.median(p["s"] for p in traced) / untraced - 1.0
            out[name] = (value, f"traced {len(traced)} vs untraced {len(result['untraced'])} passes")
        else:
            value = statistics.median(p["layers"].get(name, 0) for p in traced)
            out[name] = (value, f"median of {len(traced)} traced passes")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join(ROOT, "src", "staticlab", "__init__.py")):
        return fail(f"no staticlab sources under {os.path.join(ROOT, 'src')}: run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if not 0 < args.seconds <= 60:
        return fail("--seconds must be in (0, 60]")

    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    workdir = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir)
    env["TMPDIR"] = workdir  # the acceptance suite's temporary directories stay in the checkout
    try:
        try:
            proc = subprocess.run(worker_cmd(args, workdir), cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            return fail(f"workload did not finish within {TIME_LIMIT:.0f} s", 1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return fail(f"worker exited with code {proc.returncode}", 1)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return fail("worker printed no result", 1)
        try:
            setup = probe_setup(args, workdir, env, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    values = per_layer(result, names) if args.trace else end_to_end(result, setup)
    if sorted(values) != sorted(names):
        return fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}", 1)

    ops = [op for phase in ("untraced", "traced") for p in result.get(phase, []) for op in p["ops"]]
    known = result["known_defects"]
    failures = [(name, error) for name, _, error in ops if error is not None]
    unexpected = sorted({name for name, _ in failures if name not in known})
    correct = not unexpected and result["src_unchanged"]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workloads[args.workload]}")
    for m in declared:
        value, samples = values[m["name"]]
        print(f"  {m['name']:<45} {value:>14.6g} {m['unit']:<6} ({samples})")
    print(f"  {'fail_frac':<45} {len(failures) / len(ops):>14.6g} {'ratio':<6} "
          f"({len(failures)} failed of {len(ops)} ops attempted)")
    counts = Counter(name for name, _ in failures)
    for name, error in sorted(dict(reversed(failures)).items()):  # first error of each op
        tag = "known defect" if name in known else "UNEXPECTED"
        print(f"  failed x{counts[name]} [{tag}] {name}: {error[:300]}")
    if not result["src_unchanged"]:
        print("  ERROR: a file under src/ changed during the run")
    for target in result.get("trace_missing", []):
        print(f"  note: trace target {target} does not exist in this version; its metrics read 0")
    env_info = {"machine": platform.machine(), "cpu": cpu_model(), "cpus": os.cpu_count(),
                "python": result["python"], "numpy": result["numpy"], "scipy": result["scipy"],
                "git_sha": git_sha(ROOT), "src_sha256": result["src_sha256"],
                "loop": "closed, 1 caller, whole passes", "blas_threads": 1}
    print(f"  env: {json.dumps(env_info)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failures),
                      "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
