"""Utility families and budget-normalized query allocation.

Allocation levels are proportional to per-hypothesis utilities and normalized
so that their sum equals the query budget exactly:

    h_i = n_b * u_i / sum_j u_j

Levels above 1 spend a sure query; because the Bernoulli query indicator uses
min(1, h_i), the expected number of queries sum_i min(1, h_i) never exceeds
n_b.  Heavy-tailed utilities concentrate the budget on a few hypotheses and
waste the clamped surplus, which is why range-compressed families (Log1p,
LogInverse) exist.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateUtilitiesError, DomainError

__all__ = [
    "UtilitySpec",
    "AllocationResult",
    "eval_utility",
    "allocate_utilities",
]

_FAMILIES = ("identity", "log1p", "inverse", "log_inverse", "custom")
_DIRECT = ("identity", "log1p")
_INVERSE = ("inverse", "log_inverse")


@dataclass(frozen=True)
class UtilitySpec:
    """A monotone map from auxiliary values to nonnegative utilities.

    Direct families (identity, log1p) grow with the auxiliary and suit
    e-type auxiliaries; inverse families (inverse, log_inverse) shrink with
    it and suit p-type auxiliaries.  ``custom`` interpolates a monotone
    table piecewise-linearly with flat extrapolation beyond the endpoints.
    """

    family: str
    eps: float = 1e-8
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown utility family {self.family!r}")
        if self.family in _INVERSE:
            if not np.isfinite(self.eps) or self.eps <= 0.0:
                raise DomainError(f"eps must be positive, got {self.eps!r}")
        if self.family == "custom":
            if self.table_x is None or self.table_y is None:
                raise DomainError("custom utility requires a table")
            xs = np.asarray(self.table_x, dtype=np.float64)
            ys = np.asarray(self.table_y, dtype=np.float64)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise DomainError("custom table must be two aligned vectors of length >= 2")
            if np.any(np.diff(xs) <= 0.0):
                raise DomainError("custom table grid must be strictly increasing")
            if np.any(ys < 0.0):
                raise DomainError("custom table values must be nonnegative")
            diffs = np.diff(ys)
            if not (np.all(diffs >= 0.0) or np.all(diffs <= 0.0)):
                raise DomainError("custom table must be monotone")
        elif self.table_x is not None or self.table_y is not None:
            raise DomainError("only the custom family takes a table")

    @property
    def direction(self) -> str:
        if self.family in _DIRECT:
            return "direct"
        if self.family in _INVERSE:
            return "inverse"
        ys = np.asarray(self.table_y, dtype=np.float64)
        return "direct" if ys[-1] >= ys[0] else "inverse"

    @classmethod
    def identity(cls) -> "UtilitySpec":
        return cls("identity")

    @classmethod
    def log1p(cls) -> "UtilitySpec":
        return cls("log1p")

    @classmethod
    def inverse(cls, eps: float = 1e-8) -> "UtilitySpec":
        return cls("inverse", eps=eps)

    @classmethod
    def log_inverse(cls, eps: float = 1e-8) -> "UtilitySpec":
        return cls("log_inverse", eps=eps)

    @classmethod
    def custom(cls, xs, ys) -> "UtilitySpec":
        return cls("custom", table_x=tuple(float(x) for x in xs), table_y=tuple(float(y) for y in ys))

    @classmethod
    def from_name(cls, name: str, eps: float = 1e-8) -> "UtilitySpec":
        canonical = name.replace("-", "_").lower()
        if canonical in _DIRECT:
            return cls(canonical)
        if canonical in _INVERSE:
            return cls(canonical, eps=eps)
        raise DomainError(f"unknown utility family {name!r}")


def eval_utility(spec: UtilitySpec, x) -> np.ndarray:
    """Evaluate the utility map on a scalar or array of auxiliary values."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("auxiliary values must be finite and >= 0")
    if spec.family == "identity":
        out = arr.copy()
    elif spec.family == "log1p":
        out = np.log1p(arr)
    elif spec.family == "inverse":
        out = 1.0 / (arr + spec.eps)
    elif spec.family == "log_inverse":
        out = np.log1p(1.0 / (arr + spec.eps))
    else:
        out = np.interp(arr, np.asarray(spec.table_x), np.asarray(spec.table_y))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AllocationResult:
    """Normalized allocation levels plus budget accounting."""

    h: np.ndarray
    sum_h_unclamped: float
    expected_queries: float
    clamp_count: int

    @property
    def query_prob(self) -> np.ndarray:
        return np.minimum(1.0, self.h)


def allocate_utilities(utilities, n_b: float) -> AllocationResult:
    """Allocate the budget ``n_b`` proportionally to precomputed utilities.

    A budget above the number of utilities is clamped to it, with a warning.
    """
    if not np.isfinite(n_b) or n_b <= 0.0:
        raise DomainError(f"budget must be positive, got {n_b!r}")
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
        sum_h_unclamped=float(np.sum(h)),
        expected_queries=float(np.sum(np.minimum(1.0, h))),
        clamp_count=int(np.count_nonzero(h > 1.0)),
    )
