"""Budgeted query engine: the active method and its baselines.

Methods
    active      allocation-driven active construction (utility + budget)
    active-xu   same engine with the utility implied by the Xu query rule
    xu          independent per-hypothesis Bernoulli queries, no global budget
    random      uniform subset of exactly n_b hypotheses
    all         query everything

Each run reads the exact statistics once, at the rows its query mask
selects, so ``n_queries`` is the number of exact statistics read.
``run_method`` is the one entry point for all five.
Per-hypothesis randomness is keyed by the hypothesis id when ids are given
(by position otherwise), which makes outputs invariant to input row order;
the Random baseline draws a subset of positions by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .allocation import (AllocationResult, allocate_utilities, check_budget, check_family,
                         eval_utility)
from .core import StatMode, active_values, check_beta, check_draws, check_exact_domain
from .errors import DomainError
from .rng import DEFAULT_SEED, QUERY_DRAW, SUBSET_DRAW, keys_for_ids, uniforms

__all__ = [
    "HypothesisSet",
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


class UniqueIds(tuple):
    """Hypothesis ids: ``str`` values known to hold no repeat.

    Building one maps each id through ``str`` and raises DomainError on the
    first repeat, so ``["a", "a"]`` and ``[1, "1"]`` are both refused.
    ``UniqueIds(ids)`` returns ``ids`` itself when it is already one: a key
    column checked once, where it enters, is never copied or checked again.
    """

    __slots__ = ()

    def __new__(cls, ids=()):
        if isinstance(ids, UniqueIds):
            return ids
        ids = tuple.__new__(cls, map(str, ids))
        if len(set(ids)) != len(ids):
            first = {}
            for i, hid in enumerate(ids):
                j = first.setdefault(hid, i)
                if j != i:
                    raise DomainError(f"ids must be unique: {hid!r} at indices {j} and {i}")
        return ids

    @classmethod
    def _unchecked(cls, ids) -> "UniqueIds":
        """Wrap ``str`` ids the caller has already shown to be unique."""
        return tuple.__new__(cls, ids)


class HypothesisSet:
    """Column-oriented collection of hypotheses.

    ``aux`` is held as a read-only float64 vector, copied only when the
    given array is writable.  ``exact`` is either an array-like of n
    numbers, stored once as a float64 array, or one callable mapping an
    ascending index array to the values at those rows.  It is checked once,
    here, and read through ``exact_at``, once per run.  ``ids``, when given,
    is a sequence of n ids held as ``UniqueIds``, so no run can rewrite the
    ids its stream keys were hashed from.

    A set memoizes what its runs compute from ``aux`` and ``ids`` alone:
    the stream keys; the branch draws of the last (seed, rep); and, per
    active variant, the allocation of the last budget, utility family (or
    beta and mode) it ran with.  Each of these is read-only, so no run can
    change another's inputs.  A budget above n is clamped afresh, with its
    warning, on every run.
    """

    def __init__(self, aux, exact, ids=None):
        aux = np.asarray(aux, dtype=np.float64)
        if aux.flags.writeable:
            aux = aux.copy()
            aux.flags.writeable = False
        self.aux = aux
        if aux.ndim != 1 or aux.size == 0:
            raise DomainError("aux must be a nonempty vector")
        n = aux.size
        if ids is not None:
            if len(ids) != n:
                raise DomainError("ids must align with aux")
            ids = UniqueIds(ids)
        self.ids = ids
        if not callable(exact):
            try:
                exact = np.asarray(exact if isinstance(exact, np.ndarray) else list(exact),
                                   dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise DomainError(
                    f"exact must be numbers or one callable on index arrays: {exc}"
                ) from exc
            if exact.shape != (n,):
                raise DomainError("exact values must align with aux")
        self._exact = exact
        self._stream_keys: Optional[np.ndarray] = None
        # each entry is one (key, value) tuple, replaced whole, so a run on
        # another thread never pairs a key with another key's array
        self._draws: Optional[tuple] = None
        self._levels: dict = {}

    def __len__(self) -> int:
        return self.aux.size

    def id_of(self, i: int) -> str:
        return self.ids[i] if self.ids is not None else str(i)

    def exact_at(self, idx: np.ndarray) -> np.ndarray:
        """float64 exact statistics at the ascending positions ``idx``.

        A callable is not called when ``idx`` is empty.
        """
        exact = self._exact
        if not callable(exact):
            return exact[idx]
        if not idx.size:
            return np.empty(0)
        values = np.asarray(exact(idx), dtype=np.float64)
        if values.shape != idx.shape:
            raise DomainError("an exact callable must return one value per index")
        return values

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
    n_b / n for random, and 1.0 for all.  For the active methods it is
    ``allocation.h``, read-only, and may be the array the hypothesis set
    memoized for every run with the same levels.  ``ids`` is this run's own
    list, copied on first read from ``source_ids``, the hypothesis set's
    ``UniqueIds``: no write into it reaches another run, and a run whose ids
    nobody reads never pays for the copy.
    """

    method: str
    values: np.ndarray
    queried: np.ndarray
    h: np.ndarray
    n_queries: int
    seed: int
    source_ids: Optional[UniqueIds] = field(default=None, repr=False)
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
        key = (seed, rep)
        memo = hs._draws
        if memo is not None and memo[0] == key:
            return memo[1]
        u = uniforms(seed, rep, hs.stream_keys(), QUERY_DRAW)
        u.flags.writeable = False
        hs._draws = (key, u)
        return u
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (len(hs),):
        raise DomainError("u must hold one branch draw per hypothesis")
    return u


def _allocation(hs: HypothesisSet, variant: str, key: tuple, n_b: float,
                utilities: Callable[[], np.ndarray]) -> AllocationResult:
    """``allocate_utilities(utilities(), n_b)`` with read-only levels,
    memoized per variant for the last ``key``.

    A budget above n is not memoized, so it warns on every run.
    """
    memo = hs._levels.get(variant)
    if memo is not None and memo[0] == key:
        return memo[1]
    alloc = allocate_utilities(utilities(), n_b)
    alloc.h.flags.writeable = False
    if n_b <= len(hs):
        hs._levels[variant] = (key, alloc)
    return alloc


def _random_subset(n: int, n_b: float, seed: int, rep: int) -> np.ndarray:
    """Query mask of a uniform subset of exactly ``n_b`` positions.

    A partial Fisher-Yates over positions, driven by its own purpose tag:
    step i swaps position i with j_i = i + floor(u_i (n - i)) and picks
    the value it finds at j_i.  That is j_i itself unless an earlier step
    targeted j_i; then it is what the last such step moved there, the
    value its own position held when it ran.  Position k held k at step k
    unless an earlier step targeted k, and then that step's value.  These
    chains only point back to earlier steps, and pointer jumping resolves
    them with whole-array operations.
    """
    if not float(n_b).is_integer():
        raise DomainError(f"random baseline needs an integer budget, got {n_b!r}")
    n_b = int(n_b)
    if n_b < 0 or n_b > n:
        raise DomainError(f"budget must lie in [0, {n}], got {n_b}")
    queried = np.zeros(n, dtype=bool)
    if not n_b:
        return queried
    steps = np.arange(n_b)
    draws = uniforms(seed, rep, steps, SUBSET_DRAW)
    targets = steps + (draws * (n - steps)).astype(np.intp)
    # steps grouped by target, in step order within a group
    order = np.argsort(targets, kind="stable")
    grouped = targets[order]
    again = grouped[1:] == grouped[:-1]
    # earlier[i]: the last step before i with i's target, or -1
    earlier = np.full(n_b, -1)
    earlier[order[1:][again]] = order[:-1][again]
    # source[k]: the last step that targeted position k, or k.  No step
    # after k targets k, and a step k that targets itself is no later
    # step's ``earlier``, so its own entry is never read
    last = np.append(~again, True)
    last_target, last_step = grouped[last], order[last]
    inside = last_target < n_b
    source = steps.copy()
    source[last_target[inside]] = last_step[inside]
    # the value position k held at step k: the root of k's chain
    while True:
        jumped = source[source]
        if np.array_equal(jumped, source):
            break
        source = jumped
    queried[np.where(earlier >= 0, source[earlier], targets)] = True
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


def _fixed_rule(hs: HypothesisSet, mode: StatMode, queried: np.ndarray, values: np.ndarray,
                on_query: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Shared kernel of xu, random and all: one rule for every queried row.

    ``values`` holds the no-query values and is overwritten where queried
    with ``on_query(exact)``, then returned.
    """
    idx = np.nonzero(queried)[0]
    exact = hs.exact_at(idx)
    check_exact_domain(exact, mode, idx)
    values[idx] = on_query(exact)
    return values


def run_method(hs: HypothesisSet, method: MethodSpec, *, mode: StatMode, n_b: float,
               seed: int = DEFAULT_SEED, rep: int = 0,
               utility: Optional[str] = None, u=None) -> RunOutput:
    """Run one named method on the hypotheses.

    Each method picks a query mask, the no-query values and the query
    scale; the exact statistics are then read once, at the queried rows.
    The budget ``n_b`` is checked for every method, whether or not it
    spends one.  ``utility`` names the utility family that drives the
    active method's allocation; every method refuses a name that is not a
    family.  ``u`` replays the per-hypothesis branch draws of active,
    active-xu and xu; by default they come from the counter-based stream
    keyed by id, and the set keeps those of the last (seed, rep).
    """
    _check_aux_domain(hs, mode)
    variant, beta = method.variant, method.beta
    if u is not None and variant not in BRANCH_METHODS:
        raise DomainError(f"method {variant!r} draws no branch coins to replay")
    n = len(hs)
    # random takes an integer budget in [0, n] and checks it itself
    if variant != "random":
        check_budget(n_b)
    if utility is not None:
        check_family(utility)
    alloc = None
    if variant in ("active", "active-xu"):
        if variant == "active":
            if utility is None:
                raise DomainError("the active method requires a utility family")
            alloc = _allocation(hs, variant, (utility, n_b), n_b,
                                lambda: eval_utility(utility, hs.aux))
        else:
            alloc = _allocation(hs, variant, (beta, mode.is_e, n_b), n_b,
                                lambda: xu_query_prob(hs.aux, beta, mode))
        h = alloc.h
        values, queried, _ = active_values(h, _branch_draws(hs, seed, rep, u), hs.exact_at,
                                           mode, beta)
    elif variant == "xu":
        # no global budget: on no-query the auxiliary itself is reported
        h = xu_query_prob(hs.aux, beta, mode)
        queried = check_draws(_branch_draws(hs, seed, rep, u)) < h
        if mode.is_e:
            values = _fixed_rule(hs, mode, queried, hs.aux.copy(),
                                 lambda exact: (1.0 - beta) * exact)
        else:
            values = _fixed_rule(hs, mode, queried, hs.aux.copy(),
                                 lambda exact: np.minimum(1.0, exact / (1.0 - beta)))
    else:
        # random and all report the exact statistic unchanged, 1 elsewhere
        if variant == "random":
            queried = _random_subset(n, n_b, seed, rep)
            h = np.full(n, int(n_b) / n)
        else:
            queried = np.ones(n, dtype=bool)
            h = np.ones(n)
        values = _fixed_rule(hs, mode, queried, np.ones(n), lambda exact: exact)
    return RunOutput(
        method=variant,
        values=values,
        queried=queried,
        h=h,
        n_queries=int(np.count_nonzero(queried)),
        seed=seed,
        source_ids=hs.ids,
        mode=mode,
        allocation=alloc,
    )
