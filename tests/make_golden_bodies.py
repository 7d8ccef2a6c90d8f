"""Write ``tests/data/golden_bodies.json``, the byte contract of the builtin manifest.

It holds the seed-0 ``stable_body`` of every builtin entry, run as
``almqr suite --manifest builtin`` runs it, with the numpy version and the
``timing.env.simd`` of the run that made it; ``tests/test_acceptance.py``
compares each entry's body with it.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden_bodies.py

It prints the ids whose bodies moved against the file it replaces: changed,
new and removed.  For a changed body it also says how far it moved: the
number of float leaves that moved, the worst relative and absolute change
among them, and every other leaf that changed (ints, strings, booleans, and
keys present on one side only).  Regenerate it only in a change that lists
the bodies that moved and says why.
"""

import json
import math
from pathlib import Path

from almqr.cli import SUITE_SEED, _run_manifest_entry, load_manifest
from almqr.reports import stable_body

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_bodies.json"

MISSING = object()


def leaves(obj, path: str = "") -> dict:
    """The leaves of a parsed JSON value as {dotted path: value}; list entries are indexed, an empty container is a leaf."""
    if not (isinstance(obj, (dict, list)) and obj):
        return {path: obj}
    out = {}
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        out.update(leaves(value, f"{path}.{key}" if path else str(key)))
    return out


def leaf_moves(old, new) -> tuple[list, list]:
    """(float moves, other moves) between two parsed JSON values, each a list of (path, old, new).

    A leaf is a float move when it is a finite float on both sides and the
    two differ.  Every other leaf whose JSON text differs is an other move:
    ints, strings, booleans, a non-finite float on either side, and a leaf
    present on one side only (``MISSING`` on the other).
    """
    a, b = leaves(old), leaves(new)
    floats, others = [], []
    for path in sorted(set(a) | set(b)):
        u, v = a.get(path, MISSING), b.get(path, MISSING)
        if isinstance(u, float) and isinstance(v, float) and math.isfinite(u) and math.isfinite(v):
            if u != v:
                floats.append((path, u, v))
        elif u is MISSING or v is MISSING or json.dumps(u) != json.dumps(v):
            others.append((path, u, v))
    return floats, others


def describe_moves(old_body: str, new_body: str) -> str:
    """One line on how far a body moved: float leaves moved, worst relative and absolute change, other leaves."""
    floats, others = leaf_moves(json.loads(old_body), json.loads(new_body))
    abs_change = [abs(v - u) for _, u, v in floats]
    rel_change = [abs(v - u) / max(abs(u), abs(v)) for _, u, v in floats]
    text = f"float leaves moved: {len(floats)}"
    if floats:
        text += f", worst rel {max(rel_change):.3g}, worst abs {max(abs_change):.3g}"
    shown = ", ".join(f"{p}: {'(missing)' if u is MISSING else json.dumps(u)} -> {'(missing)' if v is MISSING else json.dumps(v)}"
                      for p, u, v in others)
    return text + f"; other leaves changed: {shown or 'none'}"


def main() -> None:
    bodies, env = {}, None
    for entry in load_manifest("builtin")["runs"]:
        rid, record = _run_manifest_entry((entry, SUITE_SEED, None))
        bodies[rid] = stable_body(record.dumps())
        env = record.timing["env"]
    golden = {"numpy": env["numpy"], "simd": env["simd"], "seed": SUITE_SEED, "bodies": bodies}
    old = json.loads(GOLDEN.read_text())["bodies"] if GOLDEN.exists() else {}
    for rid in sorted(set(bodies) | set(old)):
        if rid not in old:
            print(f"new: {rid}")
        elif rid not in bodies:
            print(f"removed: {rid}")
        elif bodies[rid] != old[rid]:
            print(f"changed: {rid} ({describe_moves(old[rid], bodies[rid])})")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(bodies)} bodies to {GOLDEN}")


if __name__ == "__main__":
    main()
