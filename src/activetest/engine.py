"""Budgeted query engine: the active method and its baselines.

Methods
    active      allocation-driven active construction (utility + budget)
    active-xu   same engine with the utility implied by the Xu query rule
    xu          independent per-hypothesis Bernoulli queries, no global budget
    random      uniform subset of exactly n_b hypotheses
    all         query everything

Exact statistics are evaluated lazily through a counting wrapper, so
``n_queries`` is the number of distinct hypotheses whose exact statistic was
actually touched.  Per-hypothesis randomness is keyed by the hypothesis id
when ids are given (by position otherwise), which makes outputs invariant to
input row order; the Random baseline draws a subset of positions by design.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .allocation import AllocationResult, BudgetConfig, UtilitySpec, allocate_utilities, eval_utility
from .core import ActiveOutcome, StatMode, active_values, check_beta
from .errors import DomainError
from .rng import DEFAULT_SEED, QUERY_DRAW, SUBSET_DRAW, keys_for_ids, uniforms

__all__ = [
    "HypothesisRecord",
    "HypothesisSet",
    "LazyValues",
    "MethodSpec",
    "ActiveConfig",
    "RunOutput",
    "run_active_default",
    "run_active_xu",
    "run_xu",
    "run_random",
    "run_all",
    "run_method",
    "xu_query_prob",
    "xu_implied_utility",
]

METHOD_NAMES = ("active", "active-xu", "xu", "random", "all")


@dataclass(frozen=True)
class HypothesisRecord:
    """One hypothesis: an id, a cheap auxiliary value, and the exact statistic.

    ``exact`` may be a plain float or a zero-argument callable; callables are
    invoked only when the hypothesis is actually queried.
    """

    id: str
    aux: float
    exact: Union[float, Callable[[], float]]
    truth: Optional[bool] = None  # True = non-null, when known


class LazyValues:
    """Deferred per-index access to exact statistics with query accounting.

    Each index is fetched at most once; ``eval_count`` is the number of
    distinct indices touched so far.
    """

    def __init__(self, fetch: Callable[[np.ndarray], np.ndarray], n: int):
        self._fetch = fetch
        self._values = np.full(n, np.nan)
        self.evaluated = np.zeros(n, dtype=bool)

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        fresh = indices[~self.evaluated[indices]]
        if fresh.size:
            fresh = np.unique(fresh)
            self._values[fresh] = np.asarray(self._fetch(fresh), dtype=np.float64)
            self.evaluated[fresh] = True
        return self._values[indices]

    @property
    def eval_count(self) -> int:
        return int(np.count_nonzero(self.evaluated))


class HypothesisSet:
    """Column-oriented collection of hypotheses.

    ``exact`` may be a numpy array (values fetched lazily per index), a
    callable mapping an index array to values, or a sequence of per-record
    callables.  ``lazy()`` wraps it in a fresh counting view, so each run
    keeps its own query ledger.
    """

    def __init__(self, aux, exact, ids=None, truth=None):
        self.aux = np.asarray(aux, dtype=np.float64)
        if self.aux.ndim != 1 or self.aux.size == 0:
            raise DomainError("aux must be a nonempty vector")
        n = self.aux.size
        self.ids = None if ids is None else [str(i) for i in ids]
        if self.ids is not None:
            if len(self.ids) != n:
                raise DomainError("ids must align with aux")
            if len(set(self.ids)) != n:
                raise DomainError("ids must be unique")
        if truth is None:
            self.truth = None
        else:
            self.truth = np.asarray(truth, dtype=bool)
            if self.truth.shape != (n,):
                raise DomainError("truth must align with aux")
        self._exact = exact
        self._stream_keys: Optional[np.ndarray] = None

    @classmethod
    def from_records(cls, records: Sequence[HypothesisRecord]) -> "HypothesisSet":
        records = list(records)
        if not records:
            raise DomainError("at least one hypothesis is required")
        truth = None
        if any(r.truth is not None for r in records):
            if any(r.truth is None for r in records):
                raise DomainError("truth labels must be all present or all absent")
            truth = [bool(r.truth) for r in records]
        exacts = [r.exact for r in records]

        def fetch(indices: np.ndarray) -> np.ndarray:
            out = np.empty(indices.size)
            for j, i in enumerate(indices):
                item = exacts[i]
                try:
                    out[j] = float(item()) if callable(item) else float(item)
                except Exception as exc:
                    raise DomainError(
                        f"exact statistic evaluation failed for id {records[i].id!r}: {exc}"
                    ) from exc
            return out

        return cls(
            aux=[r.aux for r in records],
            exact=fetch,
            ids=[r.id for r in records],
            truth=truth,
        )

    def __len__(self) -> int:
        return self.aux.size

    def id_of(self, i: int) -> str:
        return self.ids[i] if self.ids is not None else str(i)

    def lazy(self) -> LazyValues:
        n = len(self)
        if isinstance(self._exact, np.ndarray):
            source = self._exact
            if source.shape != (n,):
                raise DomainError("exact values must align with aux")
            return LazyValues(lambda idx: source[idx], n)
        if callable(self._exact):
            return LazyValues(self._exact, n)
        items = list(self._exact)
        if len(items) != n:
            raise DomainError("exact values must align with aux")

        def fetch(indices: np.ndarray) -> np.ndarray:
            out = np.empty(indices.size)
            for j, i in enumerate(indices):
                item = items[i]
                out[j] = float(item()) if callable(item) else float(item)
            return out

        return LazyValues(fetch, n)

    def stream_keys(self) -> np.ndarray:
        """Read-only uint64 stream indices: id-hash when ids exist, position otherwise."""
        if self._stream_keys is None:
            if self.ids is None:
                keys = np.arange(len(self), dtype=np.uint64)
            else:
                keys = keys_for_ids(self.ids)
            keys.flags.writeable = False
            self._stream_keys = keys
        return self._stream_keys


def as_hypothesis_set(records) -> HypothesisSet:
    if isinstance(records, HypothesisSet):
        return records
    return HypothesisSet.from_records(records)


@dataclass(frozen=True)
class MethodSpec:
    """A method name plus the parameters it actually uses."""

    variant: str
    beta: float = 0.5
    utility: Optional[UtilitySpec] = None

    def __post_init__(self) -> None:
        if self.variant not in METHOD_NAMES:
            raise DomainError(f"unknown method {self.variant!r}; expected one of {METHOD_NAMES}")
        check_beta(self.beta)
        if self.utility is not None and self.variant != "active":
            raise DomainError("only the active method takes a utility spec")


@dataclass(frozen=True)
class ActiveConfig:
    """Configuration for a single active run."""

    mode: StatMode
    n_b: float
    utility: UtilitySpec
    beta: float = 0.5
    seed: int = DEFAULT_SEED
    rep: int = 0

    def __post_init__(self) -> None:
        check_beta(self.beta)


@dataclass
class RunOutput:
    """Per-hypothesis outcomes of one engine run.

    ``h`` holds the query probability driver: the unclamped allocation level
    for the active methods, the per-hypothesis query probability for xu,
    n_b / n for random, and 1.0 for all.  ``scales`` is the multiplier
    applied to the exact statistic where queried and 0.0 elsewhere.
    """

    method: str
    values: np.ndarray
    queried: np.ndarray
    scales: np.ndarray
    h: np.ndarray
    n_queries: int
    seed: int
    ids: Optional[list] = None
    mode: Optional[StatMode] = None
    allocation: Optional[AllocationResult] = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.values.size

    def id_of(self, i: int) -> str:
        return self.ids[i] if self.ids is not None else str(i)

    def outcome(self, i: int) -> ActiveOutcome:
        return ActiveOutcome(
            value=float(self.values[i]),
            queried=bool(self.queried[i]),
            scale=float(self.scales[i]),
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("id,value,queried,branch,h\n")
        for i in range(len(self)):
            branch = "query" if self.queried[i] else "no_query"
            flag = "true" if self.queried[i] else "false"
            buf.write(
                f"{self.id_of(i)},{float(self.values[i])!r},{flag},{branch},{float(self.h[i])!r}\n"
            )
        return buf.getvalue()


def _check_aux_domain(hs: HypothesisSet, mode: StatMode) -> None:
    aux = hs.aux
    bad = ~np.isfinite(aux) | (aux < 0.0)
    if mode.is_p:
        bad |= aux > 1.0
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        kind = "p-type auxiliaries must lie in [0, 1]" if mode.is_p else "e-type auxiliaries must be >= 0"
        raise DomainError(f"{kind}: offending id {hs.id_of(i)!r} has aux {aux[i]!r}")


def _draws(hs: HypothesisSet, seed: int, rep: int, purpose: int) -> np.ndarray:
    return uniforms(seed, rep, hs.stream_keys(), purpose)


def run_active_default(records, config: ActiveConfig, *, u=None) -> RunOutput:
    """Allocation-driven active run.

    ``u`` overrides the per-hypothesis branch draws (replay/testing hook);
    by default they come from the counter-based stream keyed by id.
    """
    hs = as_hypothesis_set(records)
    _check_aux_domain(hs, config.mode)
    alloc = allocate_utilities(
        eval_utility(config.utility, hs.aux), BudgetConfig(config.n_b, len(hs))
    )
    return _run_allocated(hs, alloc, config, u, method="active")


def run_active_xu(records, beta: float, mode: StatMode, n_b: float, seed: int = DEFAULT_SEED,
                  rep: int = 0, *, u=None) -> RunOutput:
    """Active run whose utility is the one implied by the Xu query rule."""
    hs = as_hypothesis_set(records)
    _check_aux_domain(hs, mode)
    alloc = allocate_utilities(
        xu_implied_utility(hs.aux, beta, mode), BudgetConfig(n_b, len(hs))
    )
    config = ActiveConfig(mode=mode, n_b=n_b, utility=None, beta=beta, seed=seed, rep=rep)
    return _run_allocated(hs, alloc, config, u, method="active-xu")


def _run_allocated(hs: HypothesisSet, alloc: AllocationResult, config: ActiveConfig,
                   u, method: str) -> RunOutput:
    if u is None:
        u = _draws(hs, config.seed, config.rep, QUERY_DRAW)
    else:
        u = np.asarray(u, dtype=np.float64)
    lazy = hs.lazy()
    values, queried, scales = active_values(alloc.h, u, lazy.take, config.mode, config.beta)
    return RunOutput(
        method=method,
        values=values,
        queried=queried,
        scales=scales,
        h=alloc.h,
        n_queries=lazy.eval_count,
        seed=config.seed,
        ids=hs.ids,
        mode=config.mode,
        allocation=alloc,
    )


def xu_query_prob(aux: np.ndarray, beta: float, mode: StatMode) -> np.ndarray:
    """Per-hypothesis query probability of the Xu rule.

    e-mode: max(0, 1 - beta / aux), with aux = 0 resolved to probability 0
    (the literal limit: a zero auxiliary e-value is never queried).
    p-mode: max(0, 1 - beta * aux).
    """
    beta = check_beta(beta)
    aux = np.asarray(aux, dtype=np.float64)
    if mode.is_e:
        with np.errstate(divide="ignore"):
            raw = 1.0 - beta / aux
        return np.where(aux > 0.0, np.maximum(0.0, raw), 0.0)
    return np.maximum(0.0, 1.0 - beta * aux)


def xu_implied_utility(aux: np.ndarray, beta: float, mode: StatMode) -> np.ndarray:
    """The Xu query probability reused as a utility for budgeted allocation."""
    return xu_query_prob(aux, beta, mode)


def run_xu(records, beta: float, mode: StatMode, seed: int = DEFAULT_SEED, rep: int = 0,
           *, u=None) -> RunOutput:
    """Independent Bernoulli queries with probability given by the Xu rule.

    No global budget: the expected number of queries is the sum of the
    per-hypothesis probabilities and can be any fraction of n.  On no-query
    the auxiliary itself is reported; on query the exact statistic is scaled
    by (1 - beta) in e-mode and 1 / (1 - beta) in p-mode (p-values clamped).
    """
    beta = check_beta(beta)
    hs = as_hypothesis_set(records)
    _check_aux_domain(hs, mode)
    prob = xu_query_prob(hs.aux, beta, mode)
    if u is None:
        u = _draws(hs, seed, rep, QUERY_DRAW)
    else:
        u = np.asarray(u, dtype=np.float64)
    queried = u < prob
    lazy = hs.lazy()
    idx = np.nonzero(queried)[0]
    exact = lazy.take(idx)
    values = hs.aux.astype(np.float64).copy()
    scales = np.zeros(len(hs))
    if mode.is_e:
        if np.any(exact < 0.0) or np.any(~np.isfinite(exact)):
            raise DomainError("exact e-values must be finite and >= 0")
        scales[idx] = 1.0 - beta
        values[idx] = (1.0 - beta) * exact
    else:
        if np.any(exact < 0.0) or np.any(exact > 1.0) or np.any(~np.isfinite(exact)):
            raise DomainError("exact p-values must lie in [0, 1]")
        scales[idx] = 1.0 / (1.0 - beta)
        values[idx] = np.minimum(1.0, exact / (1.0 - beta))
    return RunOutput(
        method="xu",
        values=values,
        queried=queried,
        scales=scales,
        h=prob,
        n_queries=lazy.eval_count,
        seed=seed,
        ids=hs.ids,
        mode=mode,
    )


def run_random(records, n_b: int, seed: int = DEFAULT_SEED, rep: int = 0,
               mode: Optional[StatMode] = None) -> RunOutput:
    """Query a uniform random subset of exactly ``n_b`` hypotheses.

    Queried hypotheses report the exact statistic unchanged; the rest report
    the non-informative value 1.  Subset sampling is a partial Fisher-Yates
    over positions driven by its own purpose tag.
    """
    hs = as_hypothesis_set(records)
    n = len(hs)
    if int(n_b) != n_b:
        raise DomainError(f"random baseline needs an integer budget, got {n_b!r}")
    n_b = int(n_b)
    if n_b < 0 or n_b > n:
        raise DomainError(f"budget must lie in [0, {n}], got {n_b}")
    perm = np.arange(n)
    draws = uniforms(seed, rep, np.arange(n_b, dtype=np.uint64), SUBSET_DRAW)
    for i in range(n_b):
        j = i + int(draws[i] * (n - i))
        perm[i], perm[j] = perm[j], perm[i]
    chosen = perm[:n_b]
    lazy = hs.lazy()
    exact = lazy.take(chosen)
    values = np.ones(n)
    values[chosen] = exact
    queried = np.zeros(n, dtype=bool)
    queried[chosen] = True
    scales = np.zeros(n)
    scales[chosen] = 1.0
    return RunOutput(
        method="random",
        values=values,
        queried=queried,
        scales=scales,
        h=np.full(n, n_b / n),
        n_queries=lazy.eval_count,
        seed=seed,
        ids=hs.ids,
        mode=mode,
    )


def run_all(records, seed: int = DEFAULT_SEED, mode: Optional[StatMode] = None) -> RunOutput:
    """Query every hypothesis and report the raw exact statistics.

    Nothing is drawn; ``seed`` and ``mode`` are only recorded in the output.
    """
    hs = as_hypothesis_set(records)
    n = len(hs)
    lazy = hs.lazy()
    values = lazy.take(np.arange(n)).copy()
    return RunOutput(
        method="all",
        values=values,
        queried=np.ones(n, dtype=bool),
        scales=np.ones(n),
        h=np.ones(n),
        n_queries=lazy.eval_count,
        seed=seed,
        ids=hs.ids,
        mode=mode,
    )


def run_method(records, method: MethodSpec, *, mode: StatMode, n_b: float,
               seed: int = DEFAULT_SEED, rep: int = 0,
               utility: Optional[UtilitySpec] = None) -> RunOutput:
    """Dispatch one named method under a common interface."""
    hs = as_hypothesis_set(records)
    if method.variant == "active":
        util = method.utility if method.utility is not None else utility
        if util is None:
            raise DomainError("the active method requires a utility spec")
        config = ActiveConfig(mode=mode, n_b=n_b, utility=util, beta=method.beta,
                              seed=seed, rep=rep)
        out = run_active_default(hs, config)
    elif method.variant == "active-xu":
        out = run_active_xu(hs, method.beta, mode, n_b, seed=seed, rep=rep)
    elif method.variant == "xu":
        out = run_xu(hs, method.beta, mode, seed=seed, rep=rep)
    elif method.variant == "random":
        out = run_random(hs, n_b, seed=seed, rep=rep, mode=mode)
    else:
        out = run_all(hs, seed=seed, mode=mode)
    return out
