"""Budgeted query engine: the active method and its baselines.

Methods
    active      allocation-driven active construction (utility + budget)
    active-xu   same engine with the utility implied by the Xu query rule
    xu          independent per-hypothesis Bernoulli queries, no global budget
    random      uniform subset of exactly n_b hypotheses
    all         query everything

Exact statistics are evaluated lazily through a counting wrapper, so
``n_queries`` is the number of distinct hypotheses whose exact statistic was
actually touched.  ``run_method`` is the one entry point for all five.
Per-hypothesis randomness is keyed by the hypothesis id when ids are given
(by position otherwise), which makes outputs invariant to input row order;
the Random baseline draws a subset of positions by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .allocation import AllocationResult, BudgetConfig, UtilitySpec, allocate_utilities, eval_utility
from .core import StatMode, active_values, check_beta, check_exact_domain
from .errors import DomainError
from .rng import DEFAULT_SEED, QUERY_DRAW, SUBSET_DRAW, keys_for_ids, uniforms

__all__ = [
    "HypothesisRecord",
    "HypothesisSet",
    "LazyValues",
    "MethodSpec",
    "RunOutput",
    "UniqueIds",
    "csv_text",
    "run_method",
    "xu_query_prob",
]

METHOD_NAMES = ("active", "active-xu", "xu", "random", "all")
# the methods that draw per-hypothesis branch coins
BRANCH_METHODS = ("active", "active-xu", "xu")


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


class UniqueIds(tuple):
    """Hypothesis ids: ``str`` values known to hold no repeat.

    Building one maps each id through ``str`` and raises DomainError on the
    first repeat, so ``["a", "a"]`` and ``[1, "1"]`` are both refused.  The
    classes that take ids trust an instance as it is: a key column checked
    once, when it is read, is never copied or checked again.
    """

    __slots__ = ()

    def __new__(cls, ids=()):
        return cls._checked(ids if isinstance(ids, UniqueIds) else tuple(map(str, ids)))

    @classmethod
    def _checked(cls, ids: tuple) -> "UniqueIds":
        """``ids`` itself when it is ``UniqueIds``; otherwise a tuple of
        ``str`` ids, checked for repeats and wrapped."""
        if isinstance(ids, UniqueIds):
            return ids
        if len(set(ids)) != len(ids):
            first = {}
            for i, hid in enumerate(ids):
                j = first.setdefault(hid, i)
                if j != i:
                    raise DomainError(f"ids must be unique: {hid!r} at indices {j} and {i}")
        return tuple.__new__(cls, ids)

    @classmethod
    def _unchecked(cls, ids) -> "UniqueIds":
        """Wrap ``str`` ids the caller has already shown to be unique."""
        return tuple.__new__(cls, ids)


class LazyValues:
    """Deferred per-index access to exact statistics with query accounting.

    Each index is fetched at most once, and each fetch gets its fresh
    indices in ascending order; ``eval_count`` is the number of distinct
    indices touched so far.
    """

    def __init__(self, fetch: Callable[[np.ndarray], np.ndarray], n: int):
        self._fetch = fetch
        self._values = np.full(n, np.nan)
        self.evaluated = np.zeros(n, dtype=bool)

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        fresh = indices[~self.evaluated[indices]]
        if fresh.size:
            if np.any(fresh[1:] <= fresh[:-1]):
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
    values or zero-argument callables.  ``lazy()`` wraps it in a fresh
    counting view, so each run keeps its own query ledger.  ``ids`` is a
    ``UniqueIds`` tuple, so no run can rewrite the ids its stream keys were
    hashed from; one passed in as ``UniqueIds`` is kept as it is.
    """

    def __init__(self, aux, exact, ids=None, truth=None):
        self.aux = np.asarray(aux, dtype=np.float64)
        if self.aux.ndim != 1 or self.aux.size == 0:
            raise DomainError("aux must be a nonempty vector")
        n = self.aux.size
        if ids is not None:
            if not isinstance(ids, UniqueIds):
                ids = tuple(map(str, ids))
            if len(ids) != n:
                raise DomainError("ids must align with aux")
            ids = UniqueIds._checked(ids)
        self.ids = ids
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
        return cls(
            aux=[r.aux for r in records],
            exact=[r.exact for r in records],
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
                try:
                    out[j] = float(item()) if callable(item) else float(item)
                except Exception as exc:
                    raise DomainError(
                        f"exact statistic evaluation failed for id {self.id_of(i)!r}: {exc}"
                    ) from exc
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

    def __post_init__(self) -> None:
        if self.variant not in METHOD_NAMES:
            raise DomainError(f"unknown method {self.variant!r}; expected one of {METHOD_NAMES}")
        check_beta(self.beta)


@dataclass
class RunOutput:
    """Per-hypothesis outcomes of one engine run.

    ``h`` holds the query probability driver: the unclamped allocation level
    for the active methods, the per-hypothesis query probability for xu,
    n_b / n for random, and 1.0 for all.  ``scales`` is the multiplier
    applied to the exact statistic where queried and 0.0 elsewhere.
    ``ids`` is this run's own list, copied from the hypothesis set's id
    tuple ``source_ids`` on first read: no write into it reaches another
    run, and a run whose ids nobody reads never pays for the copy.
    """

    method: str
    values: np.ndarray
    queried: np.ndarray
    scales: np.ndarray
    h: np.ndarray
    n_queries: int
    seed: int
    source_ids: Optional[tuple] = field(default=None, repr=False)
    mode: Optional[StatMode] = None
    allocation: Optional[AllocationResult] = field(default=None, repr=False)

    @cached_property
    def ids(self) -> Optional[list]:
        return None if self.source_ids is None else list(self.source_ids)

    def __len__(self) -> int:
        return self.values.size

    def to_csv(self) -> str:
        ids = self.ids if self.ids is not None else np.arange(len(self))
        branch = list(map(_BRANCH_TEXT.__getitem__, self.queried.tolist()))
        return csv_text("id,value,queried,branch,h\n",
                        [ids, self.values, self.queried, branch, self.h])


_BRANCH_TEXT = ("no_query", "query")
# array columns: dtype kind -> text of one element
_FORMATS = {"f": repr, "b": ("false", "true").__getitem__, "i": str}
_QUOTED_CHARS = (",", '"', "\r", "\n")
# rows formatted per join: bounds the row strings alive at once
_ROWS_PER_JOIN = 1 << 14


def _quote(field: str) -> str:
    if any(c in field for c in _QUOTED_CHARS):
        return '"' + field.replace('"', '""') + '"'
    return field


def csv_text(header: str, columns: Sequence) -> str:
    """Comma-separated text: ``header``, then one line per row of ``columns``.

    A float array is written with ``repr`` (the shortest string that reads
    back to the same float), a bool array as true/false, an integer array
    as its integers, and any other column as text, quoted the way
    ``csv.writer`` quotes a field holding a comma, a quote or a line break.
    The quoting check runs once per column, so plain text is written as is.
    Rows are formatted a block at a time.
    """
    texts = []
    for column in columns:
        if isinstance(column, np.ndarray):
            texts.append((column, _FORMATS[column.dtype.kind]))
            continue
        if any(c in "".join(column) for c in _QUOTED_CHARS):
            column = list(map(_quote, column))
        texts.append((column, None))
    parts = [header]
    for start in range(0, len(texts[0][0]), _ROWS_PER_JOIN):
        stop = start + _ROWS_PER_JOIN
        rows = zip(*[column[start:stop] if fmt is None else map(fmt, column[start:stop].tolist())
                     for column, fmt in texts])
        parts += ("\n".join(map(",".join, rows)), "\n")
    return "".join(parts)


def _check_aux_domain(hs: HypothesisSet, mode: StatMode) -> None:
    aux = hs.aux
    bad = ~np.isfinite(aux) | (aux < 0.0)
    if mode.is_p:
        bad |= aux > 1.0
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        kind = "p-type auxiliaries must lie in [0, 1]" if mode.is_p else "e-type auxiliaries must be >= 0"
        raise DomainError(f"{kind}: offending id {hs.id_of(i)!r} has aux {float(aux[i])!r}")


def _branch_draws(hs: HypothesisSet, seed: int, rep: int, u) -> np.ndarray:
    if u is None:
        return uniforms(seed, rep, hs.stream_keys(), QUERY_DRAW)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (len(hs),):
        raise DomainError("u must hold one branch draw per hypothesis")
    return u


def _random_subset(n: int, n_b: float, seed: int, rep: int) -> np.ndarray:
    """Query mask of a uniform subset of exactly ``n_b`` positions.

    Partial Fisher-Yates over positions, driven by its own purpose tag.
    """
    try:
        whole = int(n_b) == n_b
    except (ValueError, OverflowError):  # nan, +-inf
        whole = False
    if not whole:
        raise DomainError(f"random baseline needs an integer budget, got {n_b!r}")
    n_b = int(n_b)
    if n_b < 0 or n_b > n:
        raise DomainError(f"budget must lie in [0, {n}], got {n_b}")
    draws = uniforms(seed, rep, np.arange(n_b, dtype=np.uint64), SUBSET_DRAW).tolist()
    # the permutation is the identity except at the positions in ``moved``
    moved = {}
    picks = []
    for i, draw in enumerate(draws):
        j = i + int(draw * (n - i))
        picks.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    queried = np.zeros(n, dtype=bool)
    queried[picks] = True
    return queried


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


def _fixed_rule(lazy: LazyValues, mode: StatMode, queried: np.ndarray, values: np.ndarray,
                scale: float, on_query: Callable[[np.ndarray], np.ndarray]):
    """Shared kernel of xu, random and all: one scale for every queried row.

    ``values`` holds the no-query values and is overwritten where queried
    with ``on_query(exact)``.  Returns (values, scales).
    """
    idx = np.nonzero(queried)[0]
    exact = lazy.take(idx)
    check_exact_domain(exact, mode, idx)
    values[idx] = on_query(exact)
    scales = np.zeros(values.size)
    scales[idx] = scale
    return values, scales


def run_method(records, method: MethodSpec, *, mode: StatMode, n_b: float,
               seed: int = DEFAULT_SEED, rep: int = 0,
               utility: Optional[UtilitySpec] = None, u=None) -> RunOutput:
    """Run one named method on the hypotheses.

    Each method picks a query mask, the no-query values and the query
    scale; the exact statistics are then read through one fresh query
    ledger.  ``utility`` drives the active method's allocation.  ``u``
    replays the per-hypothesis branch draws of active, active-xu and xu;
    by default they come from the counter-based stream keyed by id.
    """
    hs = as_hypothesis_set(records)
    _check_aux_domain(hs, mode)
    variant, beta = method.variant, method.beta
    if u is not None and variant not in BRANCH_METHODS:
        raise DomainError(f"method {variant!r} draws no branch coins to replay")
    n = len(hs)
    lazy = hs.lazy()
    alloc = None
    if variant in ("active", "active-xu"):
        if variant == "active":
            if utility is None:
                raise DomainError("the active method requires a utility spec")
            scores = eval_utility(utility, hs.aux)
        else:
            scores = xu_query_prob(hs.aux, beta, mode)
        alloc = allocate_utilities(scores, BudgetConfig(n_b, n))
        h = alloc.h
        values, queried, scales = active_values(h, _branch_draws(hs, seed, rep, u), lazy.take,
                                                mode, beta)
    elif variant == "xu":
        # no global budget: on no-query the auxiliary itself is reported
        h = xu_query_prob(hs.aux, beta, mode)
        queried = _branch_draws(hs, seed, rep, u) < h
        if mode.is_e:
            values, scales = _fixed_rule(lazy, mode, queried, hs.aux.copy(), 1.0 - beta,
                                         lambda exact: (1.0 - beta) * exact)
        else:
            values, scales = _fixed_rule(lazy, mode, queried, hs.aux.copy(), 1.0 / (1.0 - beta),
                                         lambda exact: np.minimum(1.0, exact / (1.0 - beta)))
    else:
        # random and all report the exact statistic unchanged, 1 elsewhere
        if variant == "random":
            queried = _random_subset(n, n_b, seed, rep)
            h = np.full(n, int(n_b) / n)
        else:
            queried = np.ones(n, dtype=bool)
            h = np.ones(n)
        values, scales = _fixed_rule(lazy, mode, queried, np.ones(n), 1.0, lambda exact: exact)
    return RunOutput(
        method=variant,
        values=values,
        queried=queried,
        scales=scales,
        h=h,
        n_queries=lazy.eval_count,
        seed=seed,
        source_ids=hs.ids,
        mode=mode,
        allocation=alloc,
    )
