"""The almqr benchmark: time-to-verdict of named check workloads.

    python3 perfbench/run.py --workload tuple-metric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, tuning and held-out seed

One repetition runs each entry of the workload through the step of
``almqr suite --jobs 1``, ``cli._run_manifest_entry`` (``runner.run_check``,
then ``reports.write_report``), in this process. Repetitions go on while the
next one fits in ``--seconds`` (at least three), and a timing is the median
over them.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first check start
to last verdict), ``setup_s`` (median over fresh processes of the time from
their launch to ready: numpy and almqr imported, workload inputs built) and
``peak_rss_mb`` (of this process). ``--trace 1`` reports the per-layer
metrics of ``layertrace``; half its time goes to untraced repetitions, which
give the per-check times and the base of the tracing overhead.

The last line of standard output is the result object; the lines before it
give the env block, the report digests and the failed fraction. The reports
and a summary with the full kernel histograms go to ``.perfbench_out/``.
A run is correct when every check passes, every repetition gives the same
report digests, and the traced repetitions give identical counts. A check
that raises counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import benchenv  # first: pins the BLAS and OpenMP threads before numpy loads
import layertrace
import workloads

MIN_REPS = 3
SETUP_PROBES = 7


def _setup(workload: str):
    """Import almqr and build the workload's inputs: the work ``setup_s`` times."""
    benchenv.import_almqr()
    import almqr.cli  # noqa: F401  (the suite step; its check registry imports every layer)

    entries = workloads.build_inputs(workload, benchenv.SRC)
    outdir = os.path.join(benchenv.OUT, "reports", workload)
    os.makedirs(outdir, exist_ok=True)
    return entries, outdir


def _probe_setup(workload: str) -> float:
    """Seconds from launching a fresh process until it has set up and says ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=benchenv.ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_rep(entries, seed, outdir):
    """One repetition: every entry through run_check and write_report.

    Returns the wall time from the first check's start to the last verdict,
    and per entry its status, time, excluded samples and report digest.
    """
    from almqr import cli, reports

    results = []
    t_start = perf_counter()
    for entry in entries:
        t0 = perf_counter()
        res = {"id": entry["id"], "excluded": 0, "digest": None}
        try:
            _, record = cli._run_manifest_entry((entry, seed, outdir))
            res["path"] = os.path.join(outdir, f"{entry['id']}.json")
            res["status"] = "PASS" if record.passed else "FAIL"
            res["excluded"] = record.excluded
        except Exception as exc:  # a raising check is a failed verdict, not the end of the run
            res["status"] = f"ERROR {type(exc).__name__}: {exc}"
        res["seconds"] = perf_counter() - t0
        results.append(res)
    wall = perf_counter() - t_start
    for res in results:
        if "path" in res:
            with open(res.pop("path")) as fh:
                res["digest"] = _digest(reports.stable_body(fh.read()))
    return wall, results


def repeat(entries, seed, outdir, budget, min_reps, traced=False):
    """Repetitions while the next one fits in ``budget`` seconds: [(wall, results, tracer)]."""
    out = []
    t0 = perf_counter()
    while True:
        if traced:
            tracer = layertrace.Tracer()
            with layertrace.installed(tracer):
                wall, results = run_rep(entries, seed, outdir)
        else:
            tracer = None
            wall, results = run_rep(entries, seed, outdir)
        out.append((wall, results, tracer))
        if len(out) >= min_reps and perf_counter() - t0 + wall > budget:
            return out


def _layer_metrics(entries, plain, traced):
    """Per-layer values, and whether every traced repetition counted the same."""
    per_rep = [layertrace.layer_values(tracer) for _, _, tracer in traced]
    timed = {name for name, unit, _ in layertrace.metric_specs([]) if unit == "s"}
    counts = [{k: v for k, v in values.items() if k not in timed} for values in per_rep]
    values = {k: statistics.median(v[k] for v in per_rep) for k in timed if k in per_rep[0]}
    values.update(counts[0])
    for entry in entries:
        values[f"runner.run_check.{entry['id']}_s"] = statistics.median(
            res["seconds"] for _, results, _ in plain for res in results if res["id"] == entry["id"]
        )
    values["runner.excluded"] = sum(res["excluded"] for res in plain[0][1])
    values["trace.overhead_frac"] = (
        statistics.median(wall for wall, _, _ in traced) / statistics.median(wall for wall, _, _ in plain) - 1.0
    )
    specs = layertrace.metric_specs(workloads.all_entry_ids())
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in specs}
    return metrics, all(c == counts[0] for c in counts)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    entries, outdir = _setup(workload)
    if trace:
        setup_samples = []
        plain = repeat(entries, seed, outdir, seconds / 2, 1)
        traced = repeat(entries, seed, outdir, seconds / 2, 2, traced=True)
    else:
        setup_samples = [_probe_setup(workload) for _ in range(SETUP_PROBES)]
        plain, traced = repeat(entries, seed, outdir, seconds, MIN_REPS), []
    reps = plain + traced

    all_results = [res for _, results, _ in reps for res in results]
    attempted = len(all_results)
    failed = sum(res["status"] != "PASS" for res in all_results)
    digests = {res["id"]: res["digest"] for res in reps[0][1]}
    same_digests = all({res["id"]: res["digest"] for res in results} == digests for _, results, _ in reps)

    if trace:
        metrics, same_counts = _layer_metrics(entries, plain, traced)
    else:
        same_counts = True
        metrics = {
            "wall_s": {"value": statistics.median(wall for wall, _, _ in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    env = benchenv.env_block()
    failures = sorted({f"{res['id']}: {res['status']}" for res in all_results if res["status"] != "PASS"})
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "digests": digests,
        "failed_frac": failed / attempted,
        "failures": failures,
        "walls_s": [wall for wall, _, _ in reps],
        "setup_samples_s": setup_samples,
        "kernel_histograms": layertrace.histograms(traced[0][2]) if trace else None,
        "metrics": metrics,
    }
    os.makedirs(benchenv.OUT, exist_ok=True)
    with open(os.path.join(benchenv.OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
    for line in failures:
        print("failure " + line)
    correct = failed == 0 and same_digests and same_counts
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seconds: float, seed: int) -> int:
    """Every workload in a process of its own, at ``seed`` and at the held-out seed."""
    code = 0
    for workload in workloads.WORKLOADS:
        for s in (seed, workloads.HELD_OUT_SEED):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=benchenv.ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed={s}: exit {proc.returncode}\n{proc.stderr}")
                code = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            m = res["metrics"]
            print(
                f"{workload:13s} seed={s:<5d} "
                + " ".join(f"{k}={m[k]['value']:.4g} {m[k]['unit']}" for k in ("wall_s", "setup_s", "peak_rss_mb"))
                + f" failed_frac={res['failed'] / res['attempted']:.3g} ratio correct={res['correct']}"
            )
            if not res["correct"]:
                code = 1
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help=f"one of {', '.join(workloads.WORKLOADS)}")
    ap.add_argument("--seed", type=int, default=workloads.TUNING_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload at --seed and at the held-out seed")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.all:
            return run_all(args.seconds, args.seed)
        if args.probe_setup:
            _setup(args.workload)
            print("ready", flush=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except benchenv.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
