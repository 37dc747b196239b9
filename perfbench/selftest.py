"""Fast self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk to one line and a tiny fit budget, untraced and
traced, and checks that every metric BENCHMARK.json lists is emitted; then
feeds deliberately wrong results to the output checks and checks that each
is caught; finally checks that the benchmark refuses to run without the
program's sources.  Exits 0 when all of that holds.
"""
import json
import os
import shutil
import subprocess
import sys
import types

import run  # sets the thread variables and locates the checkout

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run_bench(workload, trace, cwd=run.ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--shrink"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted():
    with open(BENCH) as fh:
        spec = json.load(fh)
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    named = {"fit_lines": ["fit_s_p50", "fits_per_s", "fit_objective_ratio_p50"],
             "crossval_cli": ["crossval_s", "loo_interp_rmse", "loo_extrap_rmse"],
             "bench_rmse_cli": ["bench_s", "bench_rmse_p50.none", "bench_rmse_p50.pso",
                                "bench_rmse_p50.de"]}
    for workload in spec_names(spec):
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag} exits 0 ({proc.stderr.strip()[-300:]})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag} prints the four result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag} is correct")
            expect(list(result["metrics"]) == wanted[trace],
                   f"{tag} emits exactly the listed metrics")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{tag} emits numbers only")
            printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
            extra = named[workload] + ["failed_ratio"] if trace == 0 else \
                ["trace.overhead_s", "predict.fit_map.s", "cli.main.self_s",
                 "dataio.parse_map_csv.s", "layer.optimize.self_s"]
            expect(set(wanted[trace] + extra) <= printed,
                   f"{tag} prints every metric by name: missing "
                   f"{sorted(set(wanted[trace] + extra) - printed)}")


def spec_names(spec):
    return [w["name"] for w in spec["workloads"]]


def check_checks():
    import workloads

    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    record = os.path.join(work, "record.json")

    def caught(wl, outcomes, what):
        os.makedirs(work, exist_ok=True)
        msgs, failed, _ = run.check_outcomes(wl, outcomes, record)
        expect(failed >= 1, f"check catches {what} ({msgs[:1]})")
        if os.path.exists(record):
            os.remove(record)

    fit = workloads.FitLines(7, work, shrink=True)
    good = fit.run_op(0)
    msgs, failed, _ = run.check_outcomes(fit, [(0, good, None)], record)
    expect(failed == 0, f"a correct fit passes ({msgs})")
    bad_beta = types.SimpleNamespace(as_array=lambda: good.beta.as_array()[[2, 1, 0, 3, 4]])
    caught(fit, [(0, types.SimpleNamespace(beta=bad_beta, objective=good.objective), None)],
           "a beta that breaks m_zs < m_ch")
    caught(fit, [(0, types.SimpleNamespace(beta=good.beta, objective=float("inf")), None)],
           "an infinite objective")
    moved = good.beta.as_array() + [0, 0, 0, 0, 1e-9]
    caught(fit, [(0, good, None),
                 (1, types.SimpleNamespace(beta=types.SimpleNamespace(as_array=lambda: moved),
                                           objective=good.objective), None)],
           "a beta that differs between runs of one seed")
    caught(fit, [(0, None, "Traceback: boom")], "an operation that raised")

    cv = workloads.CrossvalCli(7, os.path.join(work, "cv"), shrink=True)
    rc, out = cv.run_op(0)
    msgs, failed, _ = run.check_outcomes(cv, [(0, (rc, out), None)], record)
    expect(failed == 0, f"a correct crossval passes ({msgs})")
    os.remove(record)
    caught(cv, [(0, (2, out), None)], "crossval exit code 2")
    report = os.path.join(out, "report.json")
    with open(report) as fh:
        text = fh.read()
    rows = json.loads(text)
    rows[0]["status"] = "FAILED"
    with open(report, "w") as fh:
        json.dump(rows, fh)
    caught(cv, [(0, (0, out), None)], "a hold-out row that is not OK")
    with open(report, "w") as fh:
        fh.write(text)
    run.check_outcomes(cv, [(0, (0, out), None)], record)
    with open(os.path.join(out, "report.csv"), "a") as fh:
        fh.write("\n")
    msgs, failed, _ = run.check_outcomes(cv, [(0, (0, out), None)], record)
    expect(failed == 1, "check catches report.csv bytes that changed for one seed")
    os.remove(record)
    os.remove(os.path.join(out, "curves.svg"))
    caught(cv, [(0, (0, out), None)], "a missing artifact")

    bench = workloads.BenchRmseCli(7, os.path.join(work, "bench"), shrink=True)
    rc, out = bench.run_op(0)
    msgs, failed, _ = run.check_outcomes(bench, [(0, (rc, out), None)], record)
    expect(failed == 0, f"a correct bench passes ({msgs})")
    os.remove(record)
    path = os.path.join(out, "bench.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("max_err", "maxerr", 1))
    caught(bench, [(0, (0, out), None)], "a changed bench.csv header")
    with open(path, "w") as fh:
        fh.write(text.replace(",OK", ",FAILED", 1))
    caught(bench, [(0, (0, out), None)], "a bench row that failed")
    shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(BENCH, bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fit_lines", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    run.import_program()
    check_emitted()
    check_checks()
    check_refuses_without_sources()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
