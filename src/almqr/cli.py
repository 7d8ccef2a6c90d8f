"""Command-line interface.

Exit codes: 0 = pass, 1 = a check failed, 2 = usage/spec error,
3 = numerical failure inside a verifier.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .almgren import AlmgrenPoint, TupleSpaceError
from .covers import CoverError, NumericalError, build_map, minv
from .dsl import SpecError, build_form
from .forms import ComassSettings, comass
from .reports import ReportRecord, write_report
from .runner import CHECKS, run_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SUITE_SEED = 0  # default seed of ``almqr suite``


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _emit(record: ReportRecord, args) -> int:
    if getattr(args, "out", None):
        write_report(record, args.out)
    if getattr(args, "format", "json") == "csv":
        print(_csv_text(record), end="")
    else:
        print(json.dumps(record.to_json_dict(), sort_keys=True, indent=2))
    if getattr(args, "csv", None):
        _write_csv(record, args.csv)
    return EXIT_PASS if record.passed else EXIT_FAIL


def _csv_rows(record: ReportRecord) -> list[dict]:
    m = record.metrics
    if "histogram" in m:
        edges = m["histogram"]["edges"]
        return [
            {"bin_lo": lo, "bin_hi": hi, "count": c}
            for lo, hi, c in zip(edges[:-1], edges[1:], m["histogram"]["counts"])
        ]
    if "rows" in m and isinstance(m["rows"], list) and m["rows"] and isinstance(m["rows"][0], dict):
        return m["rows"]
    return [{k: v for k, v in m.items() if isinstance(v, (int, float, str, bool))}]


def _csv_text(record: ReportRecord) -> str:
    import io

    rows = _csv_rows(record)
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv(record: ReportRecord, path: str) -> None:
    """Flatten plottable metrics (histograms, per-row tables) to a CSV file."""
    text = _csv_text(record)
    if not text:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _cmd_inverse(args) -> int:
    f = build_map(_load_json_arg(args.map))
    y = _load_json_arg(args.y)
    p = minv(f, np.asarray(y, dtype=float))
    print(json.dumps(p.to_json(), sort_keys=True, indent=2))
    return EXIT_PASS


def _cmd_form_comass(args) -> int:
    form = build_form(_load_json_arg(args.form))
    point = _load_json_arg(args.point)
    try:
        x = np.asarray(point, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"--point must be a vector of numbers: {exc}") from exc
    if x.shape != (form.dim,):
        raise SpecError(f"--point must be a vector of length {form.dim}, got shape {x.shape}")
    if args.starts < 1:
        raise SpecError(f"--starts must be at least 1, got {args.starts}")
    res = comass(form, x, ComassSettings(n_starts=args.starts))
    out = {
        "value": res.value,
        "converged": res.converged,
        "n_starts": res.n_starts,
        "sweeps": res.sweeps,
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_PASS if res.converged else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    config = _load_json_arg(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise SpecError(f"--config must be a JSON object, got {config!r}")
    if args.map:
        config["map"] = _load_json_arg(args.map)
    if args.form:
        config["form"] = _load_json_arg(args.form)
    if args.testform:
        config["testform"] = _load_json_arg(args.testform)
    if args.region:
        config["region"] = args.region
    if args.family:
        family = {"family": args.family}
        config["family"] = family if args.count is None else {**family, "count": args.count}
    if args.samples is not None:
        config["samples"] = args.samples
    if args.grid is not None:
        config["grid"] = args.grid
    record = run_check(args.check, config, seed=args.seed)
    return _emit(record, args)


def _cmd_modulus(args) -> int:
    # only the flags given enter the config; the check's schema holds the defaults
    config = {key: value for key, value in (("region", args.region), ("grid", args.grid), ("n", args.n))
              if value is not None}
    if args.family is not None or args.count is not None:
        family = {"family": args.family or "radial"}
        config["family"] = family if args.count is None else {**family, "count": args.count}
    record = run_check("modulus", config, seed=args.seed)
    return _emit(record, args)


def _cmd_sample_ahlfors(args) -> int:
    config: dict = {} if args.N is None else {"samples": args.N}
    if args.map:
        config["map"] = _load_json_arg(args.map)
    if args.centers:
        centers = _load_json_arg(args.centers)
        config["center_points"] = centers
    if args.radii:
        config["radii_list"] = json.loads(f"[{args.radii}]")  # comma-separated numbers; the schema checks each
    record = run_check("ahlfors", config, seed=args.seed)
    return _emit(record, args)


def _run_manifest_entry(entry_seed):
    entry, seed, outdir = entry_seed
    name = entry["check"]
    config = entry.get("config", {})
    record = run_check(name, config, seed=entry.get("seed", seed))
    if outdir:
        write_report(record, os.path.join(outdir, f"{entry.get('id', name)}.json"))
    return entry.get("id", name), record


def load_manifest(path: str) -> dict:
    """A suite manifest read from a JSON file, or the shipped one for ``"builtin"``."""
    if path == "builtin":
        from importlib import resources

        return json.loads(resources.files("almqr").joinpath("data/acceptance_manifest.json").read_text())
    with open(path) as fh:
        return json.load(fh)


def _cmd_suite(args) -> int:
    runs = load_manifest(args.manifest).get("runs", [])
    results: list[tuple[str, ReportRecord]] = []
    tasks = [(entry, args.seed, args.out) for entry in runs]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_manifest_entry, tasks))
    else:
        results = [_run_manifest_entry(t) for t in tasks]

    lines = [
        "| id | check | claim | pass | headline |",
        "|---|---|---|---|---|",
    ]
    all_pass = True
    for rid, rec in results:
        all_pass = all_pass and rec.passed
        headline = _headline(rec)
        lines.append(
            f"| {rid} | {rec.check} | {rec.claim_id} | {'PASS' if rec.passed else 'FAIL'} | {headline} |"
        )
    summary = "\n".join(lines) + "\n"
    print(summary)
    if args.summary:
        os.makedirs(os.path.dirname(os.path.abspath(args.summary)), exist_ok=True)
        with open(args.summary, "w") as fh:
            fh.write(summary)
    if not runs:
        return EXIT_PASS
    return EXIT_PASS if all_pass else EXIT_FAIL


def _headline(rec: ReportRecord) -> str:
    m = rec.metrics
    for key in ("max_ratio", "worst_rel_discrepancy", "rel_error", "max_abs_error", "worst", "ratio", "max_norm", "violation_fraction", "max_deviation", "worst_abs_gap"):
        if key in m and isinstance(m[key], (int, float)):
            return f"{key}={m[key]:.3g}"
    return ""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="almqr", description=__doc__)
    ap.add_argument("--version", action="version", version=f"almqr {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inverse", help="evaluate the multi-valued inverse of a catalog map")
    p.add_argument("--map", required=True, help="map JSON (or @file)")
    p.add_argument("--y", required=True, help="image point JSON, e.g. '[1.0, 0.0]'")
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("form", help="form utilities")
    fsub = p.add_subparsers(dest="form_command", required=True)
    pc = fsub.add_parser("comass", help="comass of a form at a point")
    pc.add_argument("--form", required=True)
    pc.add_argument("--point", required=True)
    pc.add_argument("--starts", type=int, default=64)
    pc.set_defaults(fn=_cmd_form_comass)

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("--config", help="full config JSON (or @file); flags below override")
    p.add_argument("--map")
    p.add_argument("--form")
    p.add_argument("--testform")
    p.add_argument("--region")
    p.add_argument("--family")
    p.add_argument("--count", type=int, help="curves of the --family (the check's own count if not given)")
    p.add_argument("--samples", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("modulus", help="discrete modulus of a curve family (the modulus check's defaults)")
    p.add_argument("--region")
    p.add_argument("--family", help="radial, the family of the exact n-modulus (as --count alone)")
    p.add_argument("--count", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--n", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_modulus)

    p = sub.add_parser("sample", help="sampling utilities")
    ssub = p.add_subparsers(dest="sample_command", required=True)
    pa = ssub.add_parser("ahlfors", help="ball-measure regularity sweep")
    pa.add_argument("--map")
    pa.add_argument("--centers")
    pa.add_argument("--radii")
    pa.add_argument("--N", type=int)
    pa.add_argument("--seed", type=int, default=7)
    pa.add_argument("--out")
    pa.add_argument("--csv")
    pa.add_argument("--format", choices=["json", "csv"], default="json")
    pa.set_defaults(fn=_cmd_sample_ahlfors)

    p = sub.add_parser("suite", help="run a manifest of checks and summarize")
    p.add_argument("--manifest", required=True, help="manifest JSON path, or 'builtin'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=SUITE_SEED)
    p.add_argument("--out", help="directory for per-run reports")
    p.add_argument("--summary", help="markdown summary path")
    p.set_defaults(fn=_cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, CoverError, TupleSpaceError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
