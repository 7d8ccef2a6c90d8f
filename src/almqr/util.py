"""Shared small utilities: deterministic RNG streams, row norms and canonical JSON."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def seeded_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for a (seed, task-path) pair; streams are independent per path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def row_dots(V: np.ndarray) -> np.ndarray:
    """``v @ v`` of each row v of V (k, n), bit for bit."""
    return (V[:, None, :] @ V[:, :, None])[:, 0, 0]


def row_norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of V (k, n), bit for bit."""
    return np.sqrt(row_dots(V))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
