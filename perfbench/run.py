"""Benchmark of cpmfit: three workloads run as a closed loop in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit_lines --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``fit_lines``,
``crossval_cli`` and ``bench_rmse_cli``.  The program is imported from
``src/`` of the checkout and called in-process, one operation after the
other (closed loop, one client, one thread).

``--trace 0`` runs operations until ``--seconds`` would be exceeded (at
least one) and reports the end-to-end metrics.  ``--trace 1`` runs every
distinct operation of the workload once untraced and right after once with
timing wrappers around cpmfit's public functions (tracing.py), and reports
the per-layer metrics plus the tracing overhead.  Either way every output is
checked; a failed check makes ``correct`` false and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
name every metric with its unit, including per-workload aliases and
quality figures.  Results, spans and cross-run digests go to
``.perfbench/`` in the checkout.
"""
import os
import sys

# One BLAS/OpenMP thread, pinned before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("fit_lines", "crossval_cli", "bench_rmse_cli")
SETUP_REPEATS = 5

# Per-workload names for the generic end-to-end metrics, printed for humans.
ALIASES = {
    "fit_lines": {"op_s_p50": "fit_s_p50", "ops_per_s": "fits_per_s"},
    "crossval_cli": {"op_s_p50": "crossval_s"},
    "bench_rmse_cli": {"op_s_p50": "bench_s"},
}


def import_program():
    """Import cpmfit from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "cpmfit", "__init__.py")):
        raise SystemExit(f"error: no cpmfit sources at {SRC}")
    sys.path.insert(0, SRC)
    import cpmfit
    if not os.path.abspath(cpmfit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: cpmfit imported from {cpmfit.__file__}, not {SRC}")


def code_digest() -> str:
    """Hash of the cpmfit sources and of this benchmark's own files.

    Output digests are recorded per version of both, so a change that
    legitimately alters results is never compared with an older version.
    """
    h = hashlib.sha256()
    for pkg in (os.path.join(SRC, "cpmfit"), HERE):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true",
                   help="one line per workload and a tiny fit budget (harness self-test)")
    p.add_argument("--setup-only", metavar="DIR",
                   help="import, build the inputs into DIR and exit (timed by the parent)")
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import cpmfit and build the inputs."""
    times = []
    for k in range(1 if args.shrink else SETUP_REPEATS):
        workdir = os.path.join(WORK, f"setup-{os.getpid()}-{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", workdir]
        if args.shrink:
            cmd.append("--shrink")
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


def run_one(wl, op):
    """Run operation `op`; return its wall time and its (op, result, error)."""
    t0 = perf_counter()
    try:
        result, error = wl.run_op(op), None
    except Exception:  # an operation that raises counts as failed
        result, error = None, traceback.format_exc()
    return perf_counter() - t0, (op, result, error)


def run_ops(wl, seconds):
    """Closed loop over whole cycles of the workload's distinct operations.

    Each operation starts when the previous one has ended.  Another cycle
    starts only if, at the median cycle time so far, it ends within
    `seconds`; the first cycle always runs.  Whole cycles keep the mix of
    operations the same in every run.
    """
    times, outcomes, cycles = [], [], []
    start = perf_counter()
    while not cycles or perf_counter() - start + statistics.median(cycles) <= seconds:
        c0 = perf_counter()
        for _ in range(wl.n_distinct):
            t, outcome = run_one(wl, len(outcomes))
            times.append(t)
            outcomes.append(outcome)
        cycles.append(perf_counter() - c0)
    return times, outcomes


def run_traced(wl, tracer):
    """Each distinct operation once untraced and then once traced.

    The two runs of an operation follow each other, so that a drift of the
    machine's speed falls on both alike.  Untraced operations are numbered
    0..n-1 and traced ones n..2n-1, so that each has its own output
    directory.  Returns the untraced and traced times and all outcomes.
    """
    plain_times, traced_times, plain, traced = [], [], [], []
    for k in range(wl.n_distinct):
        t, outcome = run_one(wl, k)
        plain_times.append(t)
        plain.append(outcome)
        tracer.op = wl.n_distinct + k
        tracer.install()
        try:
            t, outcome = run_one(wl, tracer.op)
        finally:
            tracer.uninstall()
        traced_times.append(t)
        traced.append(outcome)
    return plain_times, traced_times, plain + traced


def check_outcomes(wl, outcomes, record_path):
    """Output checks per operation.

    Returns the failure messages, the number of failed operations and the
    first correct result per distinct operation.

    Besides the workload's own checks, an operation must give the same digest
    as the earlier operation on the same input in this run, and as any
    earlier run with the same seed (kept in `record_path`).
    """
    try:
        with open(record_path) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    failures, failed_ops, firsts = [], 0, {}
    for op, result, error in outcomes:
        k = op % wl.n_distinct
        if error is not None:
            failures.append(f"op {op} raised:\n{error}")
            failed_ops += 1
            continue
        problems = wl.check(op, result)
        if not problems:
            digest = wl.digest(op, result)
            key = str(k)
            if key in record and record[key] != digest:
                problems.append(f"op {op}: output differs from an earlier run or "
                                f"operation with the same seed")
            record.setdefault(key, digest)
        if problems:
            failures.extend(problems)
            failed_ops += 1
        else:
            firsts.setdefault(k, result)
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return failures, failed_ops, firsts


def metadata() -> dict:
    import numpy as np
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "code_sha256": code_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        import_program()
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, args.setup_only, args.shrink)
        return 0

    import_program()
    setup_s = measure_setup(args)

    import tracing
    import workloads

    tag = f"{args.workload}-seed{args.seed}{'-shrink' if args.shrink else ''}"
    workdir = os.path.join(WORK, "work", f"{tag}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.shrink)

    if args.trace:
        tracer = tracing.Tracer()
        t0 = perf_counter()
        plain_times, traced_times, outcomes = run_traced(wl, tracer)
        times = plain_times
    else:
        times, outcomes = run_ops(wl, args.seconds)

    failures, failed_ops, firsts = check_outcomes(
        wl, outcomes, os.path.join(WORK, "records", code_digest(), f"{tag}.json"))
    quality = wl.quality(firsts) if firsts else {}
    attempted = len(outcomes)

    if args.trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(WORK, "spans", f"{tag}.jsonl"), t0)
        plain_s, traced_s = sum(plain_times), sum(traced_times)
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.untraced_s"] = (plain_s, "s")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.wall_ratio"] = (traced_s / plain_s, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "ok_ratio": ((attempted - failed_ops) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    meta = metadata()
    info = dict(quality)
    if not args.trace:
        info.update({alias: metrics[k] for k, alias in ALIASES[args.workload].items()})
        info["failed_ratio"] = (failed_ops / attempted, "ratio")

    shutil.rmtree(workdir, ignore_errors=True)
    for problem in failures:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "ops": len(outcomes), **meta}))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} = {value!r} {unit}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(WORK, "results", f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
                   "meta": meta, "op_times_s": times, "failures": failures}, fh, indent=1)
    if args.trace:
        # Only the per-layer metrics listed in BENCHMARK.json go on the last line.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            listed = [m["name"] for m in json.load(fh)["per_layer"]]
        result["metrics"] = {k: result["metrics"][k] for k in listed}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
