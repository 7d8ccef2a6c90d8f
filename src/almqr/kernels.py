"""Public face of the assignment kernels.

The kernels are numpy code in :mod:`almqr._kernels_py`; callers import them
from here.  ``BACKEND`` names the implementation for reports and benchmarks.
"""

from __future__ import annotations

from ._kernels_py import (
    assignment_value,
    dist_sq,
    dist_sq_one_to_many,
    dist_sq_pairs,
    enumerate_min,
    solve_assignment,
    solve_assignments,
    sq_costs,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "assignment_value",
    "dist_sq",
    "dist_sq_one_to_many",
    "dist_sq_pairs",
    "enumerate_min",
    "solve_assignment",
    "solve_assignments",
    "sq_costs",
]
