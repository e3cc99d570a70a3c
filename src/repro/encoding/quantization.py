"""Fixed-precision simplex quantization (paper §3.2).

Contexts are represented as "normalized vectors of fixed precision,
using q digits for each entry" — i.e. points of the integer grid

.. math::

    G_{q,d} = \\{ v / 10^q : v \\in \\mathbb{N}^d, \\; \\sum_i v_i = 10^q \\}.

Naive per-entry rounding of a normalized vector does **not** land on
this grid (the rounded entries rarely sum to exactly ``10^q``), so
:func:`quantize_simplex` uses the largest-remainder method: floor every
scaled entry, then distribute the remaining units to the largest
fractional parts.  The result is always an exact grid point, the
prerequisite for the stars-and-bars cardinality (Eq. 1) and for grid-
encoder ranking.
"""

from __future__ import annotations

import numpy as np

from ..utils.math import normalize_simplex
from ..utils.validation import check_array, check_positive_int

__all__ = ["quantize_simplex", "to_grid_integers", "grid_resolution", "is_on_grid"]


def grid_resolution(q: int) -> int:
    """Number of unit steps per axis: ``10^q``."""
    q = check_positive_int(q, name="q")
    return 10**q


def to_grid_integers(x: np.ndarray, q: int) -> np.ndarray:
    """Quantize a (batch of) normalized vector(s) to integer grid counts.

    Parameters
    ----------
    x:
        Vector(s) on (or near) the simplex; re-normalized defensively.
    q:
        Decimal precision.

    Returns
    -------
    ndarray of int64 with the same shape, each row summing to ``10^q``.

    Examples
    --------
    >>> to_grid_integers(np.array([1/3, 1/3, 1/3]), 1).tolist()
    [4, 3, 3]
    """
    scale = grid_resolution(q)
    arr = check_array(x, name="x")
    squeeze = arr.ndim == 1
    arr = np.atleast_2d(arr)
    arr = normalize_simplex(arr, axis=1)
    scaled = arr * scale
    floors = np.floor(scaled).astype(np.int64)
    remainders = scaled - floors
    deficit = scale - floors.sum(axis=1)
    # hand the missing units to the largest remainders, ties by index:
    # an entry gains one unit when its rank in the stable descending
    # order is below its row's deficit (a negative deficit, impossible
    # after floor, would take one unit from the ``-deficit`` last-ranked)
    order = np.argsort(-remainders, axis=1, kind="stable")
    rank = order.argsort(axis=1)  # inverse permutation: entry -> its rank
    need = deficit[:, None]
    out = floors + (rank < need) - (rank >= order.shape[1] + need)
    return out[0] if squeeze else out


def quantize_simplex(x: np.ndarray, q: int) -> np.ndarray:
    """Quantize to the q-digit simplex grid, returning float grid points.

    >>> quantize_simplex(np.array([0.61, 0.29, 0.10]), 1).tolist()
    [0.6, 0.3, 0.1]
    """
    return to_grid_integers(x, q).astype(np.float64) / grid_resolution(q)


def is_on_grid(x: np.ndarray, q: int, *, atol: float = 1e-12) -> bool:
    """Whether ``x`` is exactly a q-digit grid point (sums to 1, q digits)."""
    arr = check_array(x, name="x", ndim=1)
    scale = grid_resolution(q)
    scaled = arr * scale
    return bool(
        np.all(np.abs(scaled - np.round(scaled)) <= atol * scale)
        and abs(arr.sum() - 1.0) <= atol * scale
    )
