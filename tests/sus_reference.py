"""Literal Gram-Schmidt primitives of semi-orthogonal user selection.

The library's SUS engine updates every residual at once; these one-vector
forms restate its two steps for tests that replay a schedule by hand.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["orthogonal_residual", "correlation"]


def orthogonal_residual(h: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    """Component of h orthogonal to the span of the basis vectors.

    One projection per basis vector: g = h - sum_j (<g_j, h> / ||g_j||^2) g_j.
    """
    g = np.array(h, dtype=np.complex128)
    for b in basis:
        b = np.asarray(b, dtype=np.complex128)
        norm_sq = np.vdot(b, b).real
        if norm_sq == 0.0:
            raise ValueError("basis contains a zero vector")
        g -= (np.vdot(b, g) / norm_sq) * b
    return g


def correlation(h: np.ndarray, g: np.ndarray) -> float:
    """Normalized inner-product magnitude |<h, g>| / (||h|| ||g||), in [0, 1]."""
    h = np.asarray(h, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    nh = np.linalg.norm(h)
    ng = np.linalg.norm(g)
    if nh == 0.0 or ng == 0.0:
        raise ValueError("correlation of a zero vector is undefined")
    return min(float(np.abs(np.vdot(h, g)) / (nh * ng)), 1.0)


