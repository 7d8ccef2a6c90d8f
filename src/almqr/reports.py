"""Report records: schema-versioned, reproducible JSON artifacts.

A record is byte-identical across runs with the same (config, seed) except
for the volatile ``timing`` object, which holds the timestamp, the runtime
and the environment (kernel backend, numpy version, and the SIMD extensions
numpy was built for and found on this CPU, which pick the vectorized loops
that round the last digits).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, kernels
from .util import canonical_json, digest

SCHEMA_VERSION = 1


@dataclass
class ReportRecord:
    check: str
    claim_id: str
    config: dict
    seed: int
    passed: bool
    metrics: dict
    thresholds: dict
    excluded: int = 0
    timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "check": self.check,
            "claim_id": self.claim_id,
            "inputs_digest": digest({"config": self.config, "seed": self.seed}),
            "config": self.config,
            "seed": self.seed,
            "pass": self.passed,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "excluded": self.excluded,
            "version": __version__,
            "timing": self.timing,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def write_report(record: ReportRecord, path: str) -> None:
    """Atomic write (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(record.dumps())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _simd() -> dict:
    """numpy's SIMD extensions: ``baseline`` (built for) and ``found`` (dispatched to on this CPU)."""
    ext = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"baseline": list(ext.get("baseline", [])), "found": list(ext.get("found", []))}


def timed(fn, *args, **kwargs):
    """Run fn, returning (result, timing dict)."""
    t0 = time.time()
    out = fn(*args, **kwargs)
    return out, {
        "runtime_s": time.time() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "env": {"backend": kernels.BACKEND, "numpy": np.__version__, "simd": _simd()},
    }


def stable_body(report_text: str) -> str:
    """The canonical bytes of a report with the volatile timing field cleared."""
    obj = json.loads(report_text)
    obj.pop("timing", None)
    return canonical_json(obj)
