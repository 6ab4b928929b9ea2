"""Shared sampling utilities for the synthetic graph generators."""

from __future__ import annotations

import numpy as np


def resolve_rng(seed) -> np.random.Generator:
    """Accept an int seed, an existing Generator, or None (fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def powerlaw_degrees(
    n: int,
    *,
    exponent: float,
    d_min: int,
    d_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``n`` degrees from a truncated discrete power law.

    ``P(d) ~ d^-exponent`` on ``[d_min, d_max]``, sampled by inverse transform
    on the continuous Pareto and floored -- accurate enough for generator use.
    """
    if d_min < 1 or d_max < d_min:
        raise ValueError(f"need 1 <= d_min <= d_max, got {d_min}, {d_max}")
    if exponent <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {exponent}")
    u = rng.random(n)
    a = 1.0 - exponent
    lo, hi = float(d_min) ** a, float(d_max + 1) ** a
    draws = (lo + u * (hi - lo)) ** (1.0 / a)
    return np.minimum(draws.astype(np.int64), d_max)


def chung_lu_edges(
    weights: np.ndarray,
    *,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample edges with endpoint probability proportional to ``weights``.

    This is the sampling form of the Chung-Lu model: drawing ``W/2`` edges
    (``W`` = total weight) with both endpoints weight-biased gives each vertex
    an expected degree close to its weight.  Duplicates and self-loops are
    left in; callers canonicalise via :class:`repro.graphs.graph.Graph`.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if n_samples is None:
        n_samples = max(1, int(total / 2))
    p = w / total
    src = rng.choice(w.size, size=n_samples, p=p)
    dst = rng.choice(w.size, size=n_samples, p=p)
    return src.astype(np.int64), dst.astype(np.int64)

