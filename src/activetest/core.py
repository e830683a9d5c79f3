"""Single-hypothesis active statistic constructions and validity checkers.

An *active* statistic spends a query on the exact statistic only with
probability controlled by a cheap auxiliary value.  Writing h for the
allocation level attached to the hypothesis (query probability min(1, h)) and
beta in (0, 1) for the split parameter:

* e-values: on no-query the statistic is beta / (1 - h); on query the exact
  e-value is scaled by (1 - beta) / h.
* p-values, auxiliary independent of the exact p-value: no-query gives
  (1 - h) / beta; on query the exact p-value is scaled by h / (1 - beta).
* p-values, arbitrary dependence: the query scale becomes
  min(1, sup_h) / (1 - beta), where sup_h bounds the allocation map from
  above (1 is always certified).

p-type outputs are reported clamped to [0, 1].  Both constructions keep the
usual guarantees: supermartingale-style mean bound E[output] <= 1 for
e-values, super-uniformity P(output <= s) <= s for p-values, whenever the
exact statistic is itself valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, InternalLogicError
from .rng import MC_BRANCH, uniforms

__all__ = [
    "ActiveOutcome",
    "StatMode",
    "E_VALUES",
    "P_INDEPENDENT",
    "P_GENERAL",
    "check_beta",
    "check_draws",
    "check_exact_domain",
    "active_e",
    "active_p",
    "active_values",
    "mc_evalue_validity",
    "mc_pvalue_superuniformity",
    "dominance_check",
]


def check_draws(u) -> np.ndarray:
    """Branch draws ``u`` as float64, each refused unless it lies in [0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    # min and max are nan when any draw is
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        i = int(np.flatnonzero(~((u >= 0.0) & (u < 1.0)))[0])
        raise DomainError(f"branch draw u must lie in [0, 1), got {float(u.flat[i])!r} "
                          f"at position {i}")
    return u


def check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0 or not np.isfinite(beta):
        raise DomainError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    return beta


@dataclass(frozen=True)
class ActiveOutcome:
    """Result of one active construction.

    ``scale`` is the multiplier applied to the exact statistic when queried
    and 0.0 otherwise (the no-query branch never touches the exact value).
    """

    value: float
    queried: bool
    scale: float


@dataclass(frozen=True)
class StatMode:
    """Statistic kind plus, for the general p construction, a certified
    upper bound on the allocation map (sup_h = 1 is always valid)."""

    kind: str
    sup_h: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("e", "p_independent", "p_general"):
            raise DomainError(f"unknown statistic mode {self.kind!r}")
        if not np.isfinite(self.sup_h) or not 0.0 < self.sup_h:
            raise DomainError(f"sup_h must be positive and finite, got {self.sup_h!r}")
        if self.kind != "p_general" and self.sup_h != 1.0:
            raise DomainError("sup_h only applies to the general p construction")

    @property
    def is_e(self) -> bool:
        return self.kind == "e"

    @property
    def is_p(self) -> bool:
        return not self.is_e

    @classmethod
    def from_name(cls, name: str, sup_h: float = 1.0) -> "StatMode":
        canonical = name.replace("-", "_").lower()
        if canonical in ("e", "evalue", "e_value"):
            return cls("e")
        if canonical in ("p_independent", "p_ind"):
            return cls("p_independent")
        if canonical in ("p_general", "p_gen"):
            return cls("p_general", sup_h=sup_h)
        raise DomainError(f"unknown statistic mode {name!r}")


E_VALUES = StatMode("e")
P_INDEPENDENT = StatMode("p_independent")
P_GENERAL = StatMode("p_general")

Lazy = Union[float, Callable[[], float]]


def _evaluate(lazy: Lazy) -> float:
    return float(lazy()) if callable(lazy) else float(lazy)


def _active_one(exact: Lazy, h: float, beta: float, mode: StatMode, u: float) -> ActiveOutcome:
    """``active_values`` on one hypothesis; ``exact`` is evaluated only on query."""
    values, queried, scales = active_values(
        np.array([float(h)]), np.array([float(u)]), lambda idx: [_evaluate(exact) for _ in idx],
        mode, beta,
    )
    return ActiveOutcome(value=float(values[0]), queried=bool(queried[0]), scale=float(scales[0]))


def active_e(e_exact: Lazy, h: float, beta: float, u: float) -> ActiveOutcome:
    """Active e-value for one hypothesis at allocation level ``h``.

    ``h`` may exceed 1 (a sure query; the query scale keeps the raw h).
    ``e_exact`` may be a callable; it is invoked only on the query branch,
    so no-query outcomes never spend the query.
    """
    return _active_one(e_exact, h, beta, E_VALUES, u)


def active_p(p_exact: Lazy, h: float, beta: float, mode: StatMode, u: float) -> ActiveOutcome:
    """Active p-value for one hypothesis, clamped to [0, 1].

    ``mode`` selects the query-branch scale: h / (1 - beta) when the
    auxiliary is independent of the exact p-value, min(1, sup_h) / (1 - beta)
    under arbitrary dependence.
    """
    if not mode.is_p:
        raise DomainError("active_p requires a p-type mode")
    return _active_one(p_exact, h, beta, mode, u)


def active_values(
    h: np.ndarray,
    u: np.ndarray,
    fetch_exact: Callable[[np.ndarray], np.ndarray],
    mode: StatMode,
    beta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized active construction.

    ``fetch_exact`` receives the integer indices of the query branch only
    and returns the exact statistics for those positions.  Returns
    (values, queried, scales) aligned with ``h``; ``scales`` is 0.0 on the
    no-query branch.  ``active_e`` / ``active_p`` are its one-element form.
    """
    beta = check_beta(beta)
    h = np.asarray(h, dtype=np.float64)
    u = check_draws(u)
    if h.shape != u.shape:
        raise DomainError("h and u must be aligned")
    if np.any(~np.isfinite(h)) or np.any(h < 0.0):
        raise DomainError("allocation levels must be finite and >= 0")
    queried = u < np.minimum(1.0, h)
    no_query = ~queried
    if np.any(h[no_query] >= 1.0):
        raise InternalLogicError("no-query branch reached with h >= 1")

    values = np.empty_like(h)
    scales = np.zeros_like(h)
    query_idx = np.nonzero(queried)[0]
    exact = np.asarray(fetch_exact(query_idx), dtype=np.float64)
    if mode.is_e:
        values[no_query] = beta / (1.0 - h[no_query])
        if query_idx.size:
            check_exact_domain(exact, mode, query_idx)
            scales[query_idx] = (1.0 - beta) / h[query_idx]
            values[query_idx] = scales[query_idx] * exact
    else:
        values[no_query] = np.minimum(1.0, (1.0 - h[no_query]) / beta)
        if query_idx.size:
            check_exact_domain(exact, mode, query_idx)
            if mode.kind == "p_independent":
                scales[query_idx] = h[query_idx] / (1.0 - beta)
            else:
                scales[query_idx] = min(1.0, mode.sup_h) / (1.0 - beta)
            values[query_idx] = np.minimum(1.0, scales[query_idx] * exact)
    return values, queried, scales


def check_exact_domain(exact: np.ndarray, mode: StatMode, idx: np.ndarray) -> None:
    if mode.is_e:
        bad = ~np.isfinite(exact) | (exact < 0.0)
        label = "e-value"
    else:
        bad = ~np.isfinite(exact) | (exact < 0.0) | (exact > 1.0)
        label = "p-value"
    if np.any(bad):
        where = int(idx[np.nonzero(bad)[0][0]])
        raise DomainError(f"exact {label} out of domain at index {where}")


_MIN_MC_SAMPLES = 10_000


def mc_evalue_validity(
    sampler: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    h_fn: Callable[[np.ndarray], np.ndarray],
    beta: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[active e-value] under the sampled null.

    ``sampler(n, seed)`` returns (auxiliary, exact) arrays; ``h_fn`` maps the
    auxiliary values to allocation levels.  Returns (mean, standard error).
    A valid construction keeps mean <= 1 up to Monte Carlo noise.
    """
    beta = check_beta(beta)
    if n_samples < _MIN_MC_SAMPLES:
        raise DomainError(f"n_samples must be >= {_MIN_MC_SAMPLES}")
    aux, exact = sampler(n_samples, seed)
    aux = np.asarray(aux, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if np.any(aux < 0.0) or np.any(exact < 0.0):
        raise DomainError("sampler produced a negative e-type statistic")
    h = np.asarray(h_fn(aux), dtype=np.float64)
    u = uniforms(seed, 0, np.arange(n_samples, dtype=np.uint64), MC_BRANCH)
    values, _, _ = active_values(h, u, lambda idx: exact[idx], E_VALUES, beta)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(n_samples))
    return mean, se


def mc_pvalue_superuniformity(
    sampler: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
    h_fn: Callable[[np.ndarray], np.ndarray],
    beta: float,
    mode: StatMode,
    s_grid,
    n_samples: int = 100_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of the active p-value on a grid of levels.

    Returns (ecdf, se) aligned with ``s_grid``; super-uniformity means
    ecdf(s) <= s up to Monte Carlo noise at every level.
    """
    beta = check_beta(beta)
    if not mode.is_p:
        raise DomainError("mc_pvalue_superuniformity requires a p-type mode")
    if n_samples < _MIN_MC_SAMPLES:
        raise DomainError(f"n_samples must be >= {_MIN_MC_SAMPLES}")
    s_grid = np.asarray(s_grid, dtype=np.float64)
    if np.any(s_grid <= 0.0) or np.any(s_grid > 1.0):
        raise DomainError("levels must lie in (0, 1]")
    aux, exact = sampler(n_samples, seed)
    aux = np.asarray(aux, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if np.any(exact < 0.0) or np.any(exact > 1.0):
        raise DomainError("sampler produced a p-value outside [0, 1]")
    h = np.asarray(h_fn(aux), dtype=np.float64)
    u = uniforms(seed, 0, np.arange(n_samples, dtype=np.uint64), MC_BRANCH)
    values, _, _ = active_values(h, u, lambda idx: exact[idx], mode, beta)
    ecdf = np.array([np.mean(values <= s) for s in s_grid])
    se = np.sqrt(ecdf * (1.0 - ecdf) / n_samples)
    return ecdf, se


_DOMINANCE_RTOL = 1e-12


def dominance_check(candidate_a, candidate_b, h_fn, beta: float) -> bool:
    """Check a candidate (no-query, query-scale) pair against the canonical one.

    ``candidate_a`` and ``candidate_b`` are (grid, values) tables on a common
    auxiliary grid: a(x) is the no-query e-value and b(x) the query-branch
    multiplier.  The pair must satisfy the validity envelope
    sup a(x)(1 - h(x)) <= beta and sup b(x) h(x) <= 1 - beta (checked first;
    violation raises DomainError).  Returns True iff the canonical pair
    a*(x) = beta / (1 - h(x)), b*(x) = (1 - beta) / h(x) dominates the
    candidate pointwise wherever 0 < h(x) < 1.
    """
    beta = check_beta(beta)
    xs_a, a_vals = (np.asarray(t, dtype=np.float64) for t in candidate_a)
    xs_b, b_vals = (np.asarray(t, dtype=np.float64) for t in candidate_b)
    if xs_a.shape != xs_b.shape or np.any(xs_a != xs_b):
        raise DomainError("candidates must be tabulated on a common grid")
    if np.any(a_vals < 0.0) or np.any(b_vals < 0.0):
        raise DomainError("candidate functions must be nonnegative")
    h = np.asarray(h_fn(xs_a), dtype=np.float64)
    if np.any(h < 0.0):
        raise DomainError("allocation levels must be >= 0")

    slack_a = beta * (1.0 + _DOMINANCE_RTOL)
    slack_b = (1.0 - beta) * (1.0 + _DOMINANCE_RTOL)
    if np.any(a_vals * np.maximum(0.0, 1.0 - h) > slack_a) or np.any(b_vals * h > slack_b):
        raise DomainError("candidate violates the validity envelope")

    interior = (h > 0.0) & (h < 1.0)
    a_star = beta / (1.0 - h[interior])
    b_star = (1.0 - beta) / h[interior]
    ok_a = np.all(a_vals[interior] <= a_star * (1.0 + _DOMINANCE_RTOL))
    ok_b = np.all(b_vals[interior] <= b_star * (1.0 + _DOMINANCE_RTOL))
    return bool(ok_a and ok_b)
