"""Self-test of the benchmark itself (not of almqr):

    python3 perfbench/selftest.py

For each workload, at the tuning seed, it checks that
- an untraced repetition leaves every almqr function unwrapped, and a traced
  one wraps every import site while it runs and unwraps them after;
- tracing changes no report: untraced and traced digests agree;
- the stressed layers register work and the bypassed ones stay at zero;
- two runs of ``run.py --trace 1`` at the same seed, in fresh processes, give
  identical report digests and identical per-layer counts.
It also checks that ``BENCHMARK.json`` lists exactly the metrics the runs
report, that a trace target almqr lacks stops the traced run, and that
``run.py`` fails without a result where the almqr sources are missing.
Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import benchenv  # first: pins the BLAS and OpenMP threads before numpy loads
import layertrace
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

# almqr modules that import a traced function by name, and that name
BY_NAME_SITES = [
    "almqr.runner.distance_value",
    "almqr.runner.minv",
    "almqr.runner.discrete_modulus",
    "almqr.modulus.lift_path",
    "almqr.modulus.minv",
    "almqr.modulus.h_function",
    "almqr.mv.branch_differentials",
    "almqr.cli.write_report",
    "almqr.kernels.solve_assignment",
    "almqr.forms.KForm.at",
    "almqr.almgren.AlmgrenPoint.from_points",
]


class SelfTest:
    def __init__(self):
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s" and k != "trace.overhead_frac"}


def check_benchmark_json(t: SelfTest) -> None:
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    t.check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads match")
    t.check(
        [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
        == [("wall_s", "s", "lower"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")],
        "BENCHMARK.json end-to-end metrics match",
    )
    t.check(
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        == layertrace.metric_specs(workloads.all_entry_ids()),
        "BENCHMARK.json per-layer metrics match layertrace.metric_specs",
    )


def check_in_process(t: SelfTest, workload: str, seed: int) -> dict:
    entries, outdir = run._setup(workload)
    t.check(layertrace.wrapped_sites() == [], f"{workload}: nothing wrapped before the untraced run")
    _, plain = run.run_rep(entries, seed, outdir)
    t.check(layertrace.wrapped_sites() == [], f"{workload}: untraced run leaves every function unwrapped")

    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        sites = set(layertrace.wrapped_sites())
        _, traced = run.run_rep(entries, seed, outdir)
    missing = [s for s in BY_NAME_SITES if s not in sites]
    t.check(not missing, f"{workload}: every import site wrapped while tracing (missing: {missing})")
    t.check(layertrace.wrapped_sites() == [], f"{workload}: every function restored after tracing")

    digests = {r["id"]: r["digest"] for r in plain}
    t.check(all(r["status"] == "PASS" for r in plain + traced), f"{workload}: every check passes")
    t.check(digests == {r["id"]: r["digest"] for r in traced}, f"{workload}: tracing leaves report digests unchanged")

    values = layertrace.layer_values(tracer)
    for name in workloads.STRESSED[workload]:
        t.check(values[name] > 0, f"{workload}: stressed {name} = {values[name]:g} > 0")
    for name in workloads.BYPASSED[workload]:
        t.check(values[name] == 0, f"{workload}: bypassed {name} = {values[name]:g} == 0")
    return digests


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=benchenv.ROOT, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    digests = json.loads(next(line for line in lines if line.startswith("digests "))[len("digests "):])
    return digests, json.loads(lines[-1])


def check_two_runs(t: SelfTest, workload: str, seed: int, digests: dict) -> None:
    (d1, r1), (d2, r2) = _traced_run(workload, seed), _traced_run(workload, seed)
    t.check(r1["correct"] and r2["correct"], f"{workload}: both traced runs correct")
    t.check(d1 == d2 == digests, f"{workload}: two runs give identical report digests")
    t.check(_counts(r1["metrics"]) == _counts(r2["metrics"]), f"{workload}: two runs give identical per-layer counts")


def check_missing_target(t: SelfTest) -> None:
    """Tracing a function almqr does not have raises, and unwraps what it wrapped."""
    run._setup("stokes")
    bogus = ("almqr.covers", "no_such_function", "covers.no_such_function", None, None)
    layertrace.FUNCTIONS.append(bogus)
    try:
        with layertrace.installed(layertrace.Tracer()):
            raised = False
    except LookupError:
        raised = True
    finally:
        layertrace.FUNCTIONS.remove(bogus)
    t.check(raised, "a missing trace target raises")
    t.check(layertrace.wrapped_sites() == [], "a missing trace target leaves every function unwrapped")


def check_missing_program(t: SelfTest) -> None:
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    bare = os.path.join(benchenv.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(benchenv.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stokes", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    t.check(proc.returncode != 0 and proc.stdout.strip() == "", "without the almqr sources run.py fails and prints no result")


def main() -> int:
    t = SelfTest()
    check_benchmark_json(t)
    check_missing_target(t)
    check_missing_program(t)
    for workload in workloads.WORKLOADS:
        digests = check_in_process(t, workload, workloads.TUNING_SEED)
        check_two_runs(t, workload, workloads.TUNING_SEED, digests)
    print(f"{len(t.failures)} failed" if t.failures else "all checks hold")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
