"""Step-up multiple testing procedures: BH, BY, and the e-value analogue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["RejectionSet", "bh", "by", "ebh", "harmonic_number"]


@dataclass(frozen=True)
class RejectionSet:
    """Outcome of a step-up procedure.

    ``rejected`` holds the rejected indices in ascending order; equal
    statistics are always rejected or retained together because membership is
    decided by comparison against a single threshold.
    """

    rejected: np.ndarray
    k_hat: int
    alpha: float
    procedure: str
    threshold: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def _check_pvalues(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("p-values must form a nonempty vector")
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise DomainError("p-values must lie in [0, 1]", index=int(bad.argmax()))
    return arr


def bh(p, alpha: float) -> RejectionSet:
    """Step-up procedure on p-values with thresholds k * alpha / n.

    Rejects the k-hat smallest p-values where k-hat is the largest k with
    p_(k) <= k * alpha / n (0 if none).
    """
    alpha = _check_alpha(alpha)
    arr = _check_pvalues(p)
    n = arr.size
    # no threshold exceeds the last, alpha * n / n, so only p-values at or
    # below it can pass: sorting them alone gives the same k-hat
    ordered = np.sort(arr[arr <= alpha * n / n])
    passing = np.nonzero(ordered <= alpha * np.arange(1, ordered.size + 1) / n)[0]
    if passing.size == 0:
        return RejectionSet(np.empty(0, dtype=np.intp), 0, alpha, "bh", 0.0)
    k_hat = int(passing[-1]) + 1
    threshold = k_hat * alpha / n
    rejected = np.nonzero(arr <= threshold)[0]
    return RejectionSet(rejected, k_hat, alpha, "bh", threshold)


def harmonic_number(n: int) -> float:
    """Sum of 1/i for i = 1..n, accumulated from the smallest terms."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return float(np.sum(1.0 / np.arange(n, 0, -1, dtype=np.float64)))


def by(p, alpha: float) -> RejectionSet:
    """BH run at level alpha / H_n; valid under arbitrary dependence."""
    alpha = _check_alpha(alpha)
    arr = _check_pvalues(p)
    inner = bh(arr, alpha / harmonic_number(arr.size))
    return RejectionSet(inner.rejected, inner.k_hat, alpha, "by", inner.threshold)


def ebh(e, alpha: float) -> RejectionSet:
    """e-value step-up: reject the k-hat largest e-values where k-hat is the
    largest k whose k-th largest e-value is >= n / (alpha * k)."""
    alpha = _check_alpha(alpha)
    arr = np.asarray(e, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("e-values must form a nonempty vector")
    bad = ~(arr >= 0.0)
    if bad.any():
        raise DomainError("e-values must be >= 0", index=int(bad.argmax()))
    n = arr.size
    # no threshold falls below the last, n / (alpha * n), so only e-values at
    # or above it can pass: sorting them alone gives the same k-hat
    ordered = np.sort(arr[arr >= n / (alpha * n)])[::-1]
    passing = np.nonzero(ordered >= n / (alpha * np.arange(1, ordered.size + 1)))[0]
    if passing.size == 0:
        return RejectionSet(np.empty(0, dtype=np.intp), 0, alpha, "ebh", np.inf)
    k_hat = int(passing[-1]) + 1
    threshold = n / (alpha * k_hat)
    rejected = np.nonzero(arr >= threshold)[0]
    return RejectionSet(rejected, k_hat, alpha, "ebh", threshold)
