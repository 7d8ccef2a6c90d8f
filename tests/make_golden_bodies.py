"""Write ``tests/data/golden_bodies.json``, the byte contract of the builtin manifest.

It holds the seed-0 ``stable_body`` of every builtin entry, run as
``almqr suite --manifest builtin`` runs it, with the numpy version and the
``timing.env.simd`` of the run that made it; ``tests/test_acceptance.py``
compares each entry's body with it.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden_bodies.py

It prints the ids whose bodies moved against the file it replaces: changed,
new and removed.  Regenerate it only in a change that lists the bodies that
moved and says why.
"""

import json
from pathlib import Path

from almqr.cli import SUITE_SEED, _run_manifest_entry, load_manifest
from almqr.reports import stable_body

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_bodies.json"


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
            print(f"changed: {rid}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(bodies)} bodies to {GOLDEN}")


if __name__ == "__main__":
    main()
