"""Step-up multiple testing procedures: BH, BY, and the e-value analogue."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import check_domain, check_evalues, check_real, check_vector, check_whole

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
    threshold: float


def check_alpha(alpha: float) -> float:
    return float(check_real("alpha", alpha, 0, 1))


def _check_pvalues(p) -> np.ndarray:
    return check_domain(check_vector(p, "p-values"), "p-values", True)


def _step_up(x: np.ndarray, cutoff) -> tuple[np.ndarray, int]:
    """The step-up on checked values ``x`` where smaller rejects: k-hat is
    the largest k with x_(k) <= cutoff(k) (0 if none), ``cutoff`` taking a
    k or an array of them and never decreasing in k.  Returns the rejected
    indices, ascending, and k-hat."""
    # no cutoff exceeds the last, cutoff(n), so only values at or below it
    # can pass: sorting them alone gives the same k-hat, and they hold
    # every rejection
    candidates = np.flatnonzero(x <= cutoff(x.size))
    values = x[candidates]
    passing = np.flatnonzero(np.sort(values) <= cutoff(np.arange(1, values.size + 1)))
    if not passing.size:
        return np.empty(0, dtype=np.intp), 0
    k_hat = int(passing[-1]) + 1
    return candidates[values <= cutoff(k_hat)], k_hat


def _p_step_up(arr: np.ndarray, level: float) -> RejectionSet:
    """The step-up on the checked p-values ``arr`` with cutoffs k * level / n."""
    n = arr.size
    rejected, k_hat = _step_up(arr, lambda k: level * k / n)
    return RejectionSet(rejected, k_hat, k_hat * level / n)


def bh(p, alpha: float) -> RejectionSet:
    """Step-up procedure on p-values with thresholds k * alpha / n.

    Rejects the k-hat smallest p-values where k-hat is the largest k with
    p_(k) <= k * alpha / n (0 if none).
    """
    alpha = check_alpha(alpha)
    return _p_step_up(_check_pvalues(p), alpha)


@lru_cache
def harmonic_number(n: int) -> float:
    """Sum of 1/i for i = 1..n, accumulated from the smallest terms."""
    n = check_whole("n", n, 1)
    return float(np.sum(1.0 / np.arange(n, 0, -1, dtype=np.float64)))


def by(p, alpha: float) -> RejectionSet:
    """BH run at level alpha / H_n; valid under arbitrary dependence."""
    alpha = check_alpha(alpha)
    arr = _check_pvalues(p)
    return _p_step_up(arr, alpha / harmonic_number(arr.size))


def ebh(e, alpha: float) -> RejectionSet:
    """e-value step-up: reject the k-hat largest e-values where k-hat is the
    largest k whose k-th largest e-value is >= n / (alpha * k)."""
    alpha = check_alpha(alpha)
    arr = check_vector(e, "e-values")
    check_evalues(arr, "e-values")
    n = arr.size
    # negation is exact, so each comparison of -e with -(n / (alpha * k))
    # is that of e with n / (alpha * k)
    rejected, k_hat = _step_up(-arr, lambda k: -(n / (alpha * k)))
    return RejectionSet(rejected, k_hat, n / (alpha * k_hat) if k_hat else np.inf)
