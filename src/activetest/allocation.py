"""Utility families and budget-normalized query allocation.

Allocation levels are proportional to per-hypothesis utilities and normalized
so that their sum equals the query budget exactly:

    h_i = n_b * u_i / sum_j u_j

Levels above 1 spend a sure query; because the Bernoulli query indicator uses
min(1, h_i), the expected number of queries sum_i min(1, h_i) never exceeds
n_b.  Heavy-tailed utilities concentrate the budget on a few hypotheses and
waste the clamped surplus, which is why range-compressed families (log1p,
log_inverse) exist.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUtilitiesError, DomainError

__all__ = [
    "AllocationResult",
    "check_budget",
    "eval_utility",
    "allocate_utilities",
]

# utility family -> direction: direct families grow with the auxiliary and
# suit e-type auxiliaries, inverse families shrink with it and suit p-type ones
DIRECTIONS = {"identity": "direct", "log1p": "direct",
              "inverse": "inverse", "log_inverse": "inverse"}
# keeps the inverse families finite at a zero auxiliary
EPS = 1e-8


def check_family(family: str) -> None:
    """Refuse a name that is not a utility family."""
    if family not in DIRECTIONS:
        raise DomainError(f"unknown utility family {family!r}")


def eval_utility(family: str, x) -> np.ndarray:
    """Evaluate the utility family ``family`` on a scalar or array of auxiliary values."""
    check_family(family)
    arr = np.asarray(x, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("auxiliary values must be finite and >= 0")
    if family == "identity":
        out = arr.copy()
    elif family == "log1p":
        out = np.log1p(arr)
    elif family == "inverse":
        out = 1.0 / (arr + EPS)
    else:
        out = np.log1p(1.0 / (arr + EPS))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AllocationResult:
    """Normalized allocation levels plus budget accounting."""

    h: np.ndarray
    expected_queries: float
    clamp_count: int

    @property
    def query_prob(self) -> np.ndarray:
        return np.minimum(1.0, self.h)


def check_budget(n_b: float) -> None:
    """Refuse a budget that is not a finite number above 0."""
    if not np.isfinite(n_b) or n_b <= 0.0:
        raise DomainError(f"budget must be positive, got {n_b!r}")


def allocate_utilities(utilities, n_b: float) -> AllocationResult:
    """Allocate the budget ``n_b`` proportionally to precomputed utilities.

    A budget above the number of utilities is clamped to it, with a warning.
    """
    check_budget(n_b)
    u = np.asarray(utilities, dtype=np.float64)
    if u.ndim != 1 or u.size == 0:
        raise DomainError("utilities must be a nonempty vector")
    if n_b > u.size:
        # name the nearest caller outside the package
        level, frame = 1, sys._getframe()
        while (frame is not None
               and frame.f_globals.get("__name__", "").partition(".")[0] == __package__):
            level, frame = level + 1, frame.f_back
        warnings.warn(f"budget {n_b} exceeds the {u.size} hypotheses; clamping", stacklevel=level)
        n_b = float(u.size)
    if np.any(~np.isfinite(u)) or np.any(u < 0.0):
        raise DomainError("utilities must be finite and >= 0")
    # sorted pairwise sum: permutation-invariant total, so allocations are
    # reproducible regardless of input order or reduction scheduling
    total = float(np.sum(np.sort(u)))
    if total <= 0.0:
        raise DegenerateUtilitiesError(
            "all utilities are zero; use a strictly positive family such as "
            "log1p or log_inverse"
        )
    h = (u / total) * n_b
    return AllocationResult(
        h=h,
        expected_queries=float(np.sum(np.minimum(1.0, h))),
        clamp_count=int(np.count_nonzero(h > 1.0)),
    )
