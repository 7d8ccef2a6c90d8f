"""Shared small utilities: the spec error, deterministic RNG streams, row norms and canonical JSON."""

from __future__ import annotations

import hashlib
import json

import numpy as np


class SpecError(ValueError):
    """Malformed form, test-form or check-config description."""


def seeded_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for a (seed, task-path) pair; streams are independent per path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def row_dots(V: np.ndarray) -> np.ndarray:
    """``v @ v`` of each row v of V (k, n), bit for bit."""
    return (V[:, None, :] @ V[:, :, None])[:, 0, 0]


def row_norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of V (k, n), bit for bit."""
    return np.sqrt(row_dots(V))


def components(close: np.ndarray) -> np.ndarray:
    """Connected components of the graphs with symmetric boolean adjacency ``close`` (..., d, d).

    Returns labels (..., d): each vertex is labelled by the smallest vertex of
    its component, so ascending labels list the components in order of their
    first member.  The reachability matrix is squared until it stops growing.
    """
    R = close | np.eye(close.shape[-1], dtype=bool)
    while True:
        R2 = R @ R
        if np.array_equal(R2, R):
            return np.argmax(R, axis=-1)
        R = R2


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]
