"""Step-up multiple testing procedures: BH, BY, and the e-value analogue."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def _check_pvalues(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("p-values must form a nonempty vector")
    # min and max are nan when any p-value is; the mask is built only to name it
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        bad = ~((arr >= 0.0) & (arr <= 1.0))
        raise DomainError("p-values must lie in [0, 1]", index=int(bad.argmax()))
    return arr


def _step_up(arr: np.ndarray, level: float, alpha: float, procedure: str) -> RejectionSet:
    """Reject the k-hat smallest of the checked p-values ``arr``, k-hat the
    largest k with p_(k) <= k * level / n (0 if none)."""
    n = arr.size
    # no threshold exceeds the last, level * n / n, so only p-values at or
    # below it can pass: sorting them alone gives the same k-hat, and they
    # hold every rejection
    candidates = np.flatnonzero(arr <= level * n / n)
    values = arr[candidates]
    ordered = np.sort(values)
    passing = np.nonzero(ordered <= level * np.arange(1, ordered.size + 1) / n)[0]
    if passing.size == 0:
        return RejectionSet(np.empty(0, dtype=np.intp), 0, alpha, procedure, 0.0)
    k_hat = int(passing[-1]) + 1
    threshold = k_hat * level / n
    return RejectionSet(candidates[values <= threshold], k_hat, alpha, procedure, threshold)


def bh(p, alpha: float) -> RejectionSet:
    """Step-up procedure on p-values with thresholds k * alpha / n.

    Rejects the k-hat smallest p-values where k-hat is the largest k with
    p_(k) <= k * alpha / n (0 if none).
    """
    alpha = check_alpha(alpha)
    return _step_up(_check_pvalues(p), alpha, alpha, "bh")


@lru_cache
def harmonic_number(n: int) -> float:
    """Sum of 1/i for i = 1..n, accumulated from the smallest terms."""
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return float(np.sum(1.0 / np.arange(n, 0, -1, dtype=np.float64)))


def by(p, alpha: float) -> RejectionSet:
    """BH run at level alpha / H_n; valid under arbitrary dependence."""
    alpha = check_alpha(alpha)
    arr = _check_pvalues(p)
    return _step_up(arr, alpha / harmonic_number(arr.size), alpha, "by")


def ebh(e, alpha: float) -> RejectionSet:
    """e-value step-up: reject the k-hat largest e-values where k-hat is the
    largest k whose k-th largest e-value is >= n / (alpha * k)."""
    alpha = check_alpha(alpha)
    arr = np.asarray(e, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("e-values must form a nonempty vector")
    if not arr.min() >= 0.0:
        raise DomainError("e-values must be >= 0", index=int((~(arr >= 0.0)).argmax()))
    n = arr.size
    # no threshold falls below the last, n / (alpha * n), so only e-values at
    # or above it can pass: sorting them alone gives the same k-hat, and they
    # hold every rejection
    candidates = np.flatnonzero(arr >= n / (alpha * n))
    values = arr[candidates]
    ordered = np.sort(values)[::-1]
    passing = np.nonzero(ordered >= n / (alpha * np.arange(1, ordered.size + 1)))[0]
    if passing.size == 0:
        return RejectionSet(np.empty(0, dtype=np.intp), 0, alpha, "ebh", np.inf)
    k_hat = int(passing[-1]) + 1
    threshold = n / (alpha * k_hat)
    return RejectionSet(candidates[values >= threshold], k_hat, alpha, "ebh", threshold)
