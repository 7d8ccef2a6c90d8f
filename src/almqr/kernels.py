"""Backend selector for the assignment kernels.

Prefers the compiled extension (:mod:`almqr._fast`); falls back to the
numpy implementation if the extension was not built.  The batched
enumeration kernel and the cost matrices are numpy in either case.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _fast as _impl  # type: ignore[no-redef]
except ImportError:
    _impl = _kernels_py

BACKEND: str = _impl.BACKEND

solve_assignment = _impl.solve_assignment
assignment_value = _impl.assignment_value
dist_sq = _impl.dist_sq
dist_sq_one_to_many = _impl.dist_sq_one_to_many
dist_sq_pairs = _impl.dist_sq_pairs

enumerate_min = _kernels_py.enumerate_min
sq_costs = _kernels_py.sq_costs


def available_backends():
    """Names and modules of all importable kernel backends."""
    out = {"python": _kernels_py}
    try:
        from . import _fast

        out["compiled"] = _fast
    except ImportError:
        pass
    return out
