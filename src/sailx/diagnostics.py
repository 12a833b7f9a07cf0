"""Out-of-distribution scoring of conditioning tails.

Each score compares a query vector (a flattened position tail) against a set
of vectors sampled from the unconditional action distribution.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

BANDWIDTH_FLOOR = 1e-9


@dataclass(frozen=True)
class SampleSet:
    """N flattened action vectors of equal dimensionality."""

    vectors: np.ndarray  # (N, d)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise InvalidInputError("sample set must be a non-empty (N, d) array")
        if not np.isfinite(v).all():
            raise InvalidInputError("sample set must be finite")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def from_chunks(cls, chunks, length: int | None = None) -> "SampleSet":
        """Flatten chunk positions (optionally only the first ``length`` steps)."""
        rows = np.array([c.positions[:length] for c in chunks], dtype=float)
        return cls(rows.reshape(len(rows), -1) if len(rows) else rows)


def _query(query, d: int) -> np.ndarray:
    """The query as a float array of shape (d,); refuses any other shape,
    and NaN and inf."""
    q = np.asarray(query, dtype=float)
    if q.shape != (d,):
        raise InvalidInputError(
            f"query must have shape ({d},), got {q.shape}")
    if not np.isfinite(q).all():
        raise InvalidInputError("query must be finite")
    return q


def scott_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension Scott's rule: sigma_j * N^(-1/(d+4)), floored at 1e-9."""
    n, d = samples.shape
    sigma = np.std(samples, axis=0, ddof=1) if n > 1 else np.zeros(d)
    h = sigma * n ** (-1.0 / (d + 4))
    if np.any(h < BANDWIDTH_FLOOR):
        warnings.warn("degenerate sample variance; bandwidth floored",
                      RuntimeWarning, stacklevel=2)
        h = np.maximum(h, BANDWIDTH_FLOOR)
    return h


def kde_score(samples: SampleSet, query) -> float:
    """Gaussian KDE likelihood of the query; higher = more in-distribution."""
    x = samples.vectors
    if x.shape[0] < 2:
        raise InvalidInputError("KDE needs at least 2 samples")
    q = _query(query, x.shape[1])
    h = scott_bandwidths(x)
    z = (q[None, :] - x) / h
    log_norm = -0.5 * x.shape[1] * np.log(2 * np.pi) - np.sum(np.log(h))
    kernels = np.exp(-0.5 * np.sum(z * z, axis=1) + log_norm)
    return float(np.mean(kernels))


def knn_distance(samples: SampleSet, query, k: int = 8) -> float:
    """Mean Euclidean distance to the k nearest samples; lower = in-distribution."""
    x = samples.vectors
    if k < 1 or k > x.shape[0]:
        raise InvalidInputError(f"k={k} outside [1, {x.shape[0]}]")
    q = _query(query, x.shape[1])
    dists = np.linalg.norm(x - q[None, :], axis=1)
    nearest = np.partition(dists, k - 1)[:k]
    return float(np.mean(nearest))


def mmd(samples: SampleSet, query, bandwidth: float = 0.5) -> float:
    """Gaussian-kernel MMD between the sample set and a Dirac at the query.

    Returns sqrt of MMD^2 = mean_ij k(x_i, x_j) - 2 mean_i k(x_i, q) + k(q, q).
    """
    if not 0 < bandwidth < np.inf:  # also refuses NaN
        raise InvalidInputError("bandwidth must be positive and finite")
    x = samples.vectors
    q = _query(query, x.shape[1])
    gamma = 1.0 / (2.0 * bandwidth**2)
    sq = np.sum(x * x, axis=1)
    d_xx = sq[:, None] + sq[None, :] - 2.0 * x @ x.T
    k_xx = float(np.mean(np.exp(-gamma * np.maximum(d_xx, 0.0))))
    d_xq = np.sum((x - q[None, :]) ** 2, axis=1)
    k_xq = float(np.mean(np.exp(-gamma * d_xq)))
    mmd2 = k_xx - 2.0 * k_xq + 1.0
    return float(np.sqrt(max(mmd2, 0.0)))
