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

from dataclasses import dataclass

import numpy as np

from .core import check_choice, check_domain, check_real, check_vector
from .errors import DegenerateUtilitiesError, DomainError

__all__ = [
    "AllocationResult",
    "eval_utility",
    "allocate_utilities",
]

# utility family -> direction: direct families grow with the auxiliary and
# suit e-type auxiliaries, inverse families shrink with it and suit p-type ones
DIRECTIONS = {"identity": "direct", "log1p": "direct",
              "inverse": "inverse", "log_inverse": "inverse"}
# the default family of each direction, range-compressed against heavy tails
DEFAULT_FAMILY = {"direct": "log1p", "inverse": "log_inverse"}
# keeps the inverse families finite at a zero auxiliary
EPS = 1e-8


def check_family(family: str) -> None:
    """Refuse a name that is not a utility family."""
    check_choice("utility family", family, tuple(DIRECTIONS))


def eval_utility(family: str, x) -> np.ndarray:
    """Evaluate the utility family ``family`` on a scalar or array of auxiliary values."""
    check_family(family)
    arr = check_domain(x, "auxiliary values", False)
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


def check_budget(n_b: float) -> None:
    """Refuse a budget that is not a finite real number above 0."""
    check_real("budget", n_b, 0, np.inf)


def allocate_utilities(utilities, n_b: float) -> AllocationResult:
    """Allocate the budget ``n_b``, at most the number of utilities,
    proportionally to precomputed utilities."""
    check_budget(n_b)
    u = check_vector(utilities, "utilities")
    check_real("budget", n_b, 0, u.size, closed=True)
    check_domain(u, "utilities", False)
    # sorted pairwise sum: permutation-invariant total, so allocations are
    # reproducible regardless of input order or reduction scheduling
    with np.errstate(over="ignore"):
        total = float(np.sum(np.sort(u)))
    if not np.isfinite(total):
        raise DomainError("utilities overflow: their sum exceeds the largest float; scale "
                          "the auxiliary values down or use a range-compressed family such "
                          "as log1p")
    if total <= 0.0:
        raise DegenerateUtilitiesError(
            "all utilities are zero, so no budget can be allocated in proportion to them; "
            "give at least one hypothesis a positive utility")
    h = (u / total) * n_b
    return AllocationResult(
        h=h,
        expected_queries=float(np.sum(np.minimum(1.0, h))),
        clamp_count=int(np.count_nonzero(h > 1.0)),
    )
