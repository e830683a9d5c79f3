"""Budgeted query engine: the active method and its baselines.

Methods
    active      allocation-driven active construction (utility + budget)
    active-xu   same engine with the utility implied by the Xu query rule
    xu          independent per-hypothesis Bernoulli queries, no global budget
    random      uniform subset of exactly n_b hypotheses
    all         query everything

``run_method`` is the one entry point for all five.  A method picks its
query mask, no-query values and queried-row rule; every run then ends in
``core``'s one construction tail, which reads the exact statistics once,
at the queried rows (so ``n_queries`` is the number read).
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
from .core import (MODES, StatMode, _active_plan, _column, _construct, _read_only,
                   active_values, as_floats, check_beta, check_choice, check_domain,
                   check_real, check_vector, check_whole)
from .errors import DegenerateUtilitiesError, DomainError
from .rng import DEFAULT_SEED, QUERY_DRAW, SUBSET_DRAW, _word, keys_for_ids, uniforms

__all__ = [
    "HypothesisSet",
    "MethodSpec",
    "RunOutput",
    "run_method",
    "xu_query_prob",
]

METHOD_NAMES = ("active", "active-xu", "xu", "random", "all")


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

    ``aux`` is held as a value column (``_column``).  ``exact`` is either
    an iterable of n numbers, held as a value column too, or one callable
    mapping an ascending index array to the values at those rows.  It is
    checked once, here, and read through ``exact_at``, once per run.
    ``ids``, when given, is an iterable of n ids held as ``UniqueIds``, so
    no run can rewrite the ids its stream keys were hashed from.

    A set memoizes what its runs compute from ``aux`` and ``ids`` alone, in
    one ``_memo`` of ``_cached``'s (key, value) entries, one per named slot,
    so it never outgrows the slot names: the stream keys; the last domain
    (e or p) ``aux`` has passed; the branch draws of the last (seed, rep);
    per active variant, the allocation of the last budget and utility family
    (or beta and mode); and, once that allocation runs again, the no-query
    values of the last beta and e-or-p domain (8 bytes per row), dropped when
    the variant's levels change; and, in a ``pipeline.AlignedPair``, the
    oracle rejection set of the last ``alpha``.  Each is read-only.
    """

    def __init__(self, aux, exact, ids=None):
        self.aux = aux = check_vector(_column(aux, "aux"), "aux")
        n = aux.size
        if ids is not None:
            ids = ids if isinstance(ids, UniqueIds) else tuple(ids)
            if len(ids) != n:
                raise DomainError("ids must align with aux")
            ids = UniqueIds(ids)
        self.ids = ids
        if not callable(exact):
            exact = _column(exact, "exact")
            if exact.shape != (n,):
                raise DomainError("exact values must align with aux")
        self._exact = exact
        self._memo: dict = {}

    def __len__(self) -> int:
        return self.aux.size

    def exact_at(self, idx: np.ndarray) -> np.ndarray:
        """float64 exact statistics at the ascending positions ``idx``.

        A callable is not called when ``idx`` is empty.
        """
        exact = self._exact
        if not callable(exact):
            return exact[idx]
        if not idx.size:
            return np.empty(0)
        values = as_floats(exact(idx), "exact")
        if values.shape != idx.shape:
            raise DomainError("an exact callable must return one value per index")
        return values

    def stream_keys(self) -> np.ndarray:
        """Read-only uint64 stream indices: id-hash when ids exist, position otherwise."""
        return _cached(self._memo, "keys", None, lambda: _read_only(
            np.arange(len(self), dtype=np.uint64) if self.ids is None
            else keys_for_ids(self.ids)))


def _cached(memo: dict, slot, key, make: Callable[[], object]):
    """``make()``, kept in ``memo[slot]`` until a caller asks that slot for
    another ``key``.  The entry is one (key, value) tuple, replaced whole,
    so a run on another thread never pairs a key with another key's value.
    """
    entry = memo.get(slot)
    if entry is not None and entry[0] == key:
        return entry[1]
    value = make()
    memo[slot] = (key, value)
    return value


@dataclass(frozen=True)
class MethodSpec:
    """A method name plus the parameters it actually uses."""

    variant: str
    beta: float = 0.5

    def __post_init__(self) -> None:
        check_choice("method", self.variant, METHOD_NAMES)
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
    source_ids: Optional[UniqueIds] = field(default=None, repr=False)
    allocation: Optional[AllocationResult] = field(default=None, repr=False)

    @cached_property
    def ids(self) -> Optional[list]:
        return None if self.source_ids is None else list(self.source_ids)

    def __len__(self) -> int:
        return self.values.size

    def to_csv(self, lead: str = "") -> str:
        """One row per hypothesis under the line ``id,value,queried,branch,h``;
        ``lead``, such as a '#' header, is the text before that line."""
        ids = self.source_ids if self.source_ids is not None else np.arange(len(self))
        branch = _BRANCH_TEXT[self.queried.view(np.uint8)].tolist()
        return csv_text(lead + "id,value,queried,branch,h\n",
                        [ids, self.values, self.queried, branch, self.h])


_BRANCH_TEXT = np.array(["no_query", "query"], dtype=object)
_BOOL_TEXT = np.array(["false", "true"], dtype=object)
_QUOTED_CHARS = (",", '"', "\r", "\n")
# rows formatted per join: bounds the cells alive at once
_ROWS_PER_JOIN = 1 << 14


def _quote(field: str) -> str:
    if any(c in field for c in _QUOTED_CHARS):
        return '"' + field.replace('"', '""') + '"'
    return field


def _needs_quotes(column) -> bool:
    # one join per column; the joined text is dropped before any row is formatted
    joined = "".join(column)
    return any(c in joined for c in _QUOTED_CHARS)


def _cells(block) -> list:
    if not isinstance(block, np.ndarray):
        return block
    if block.dtype.kind == "b":
        return _BOOL_TEXT[block.view(np.uint8)].tolist()
    if block.dtype.kind != "f":
        return list(map(str, block.tolist()))
    # one repr per distinct bit pattern, so -0.0 and 0.0 (and NaN payloads) stay apart
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def csv_text(header: str, columns: Sequence) -> str:
    """Comma-separated text: ``header``, then one line per row of ``columns``.

    ``header`` is the first text of the one join that makes the result, so
    a caller's '#' lines given there cost no second copy of the table.  A
    float array is written with ``repr`` (the shortest string that reads
    back to the same float), a bool array as true/false, an integer array
    as its integers, and any other column as text, quoted the way
    ``csv.writer`` quotes a field holding a comma, a quote or a line break.
    The quoting check joins a text column once, and ``repr`` once per distinct
    float of a block of rows.  Columns of unequal length raise ValueError.
    """
    n = len(columns[0])
    texts = []
    for column in columns:
        if len(column) != n:
            raise ValueError(f"columns must have equal lengths, got {n} and {len(column)}")
        if not isinstance(column, np.ndarray) and _needs_quotes(column):
            column = list(map(_quote, column))
        texts.append(column)
    row = [None, ","] * (len(texts) - 1) + [None, "\n"]
    parts = [header]
    for start in range(0, n, _ROWS_PER_JOIN):
        cells = row * min(_ROWS_PER_JOIN, n - start)
        for j, column in enumerate(texts):
            cells[2 * j::len(row)] = _cells(column[start:start + _ROWS_PER_JOIN])
        parts.append("".join(cells))
    return "".join(parts)


def _branch_draws(hs: HypothesisSet, seed: int, rep: int) -> np.ndarray:
    return _cached(hs._memo, "draws", (seed, rep), lambda: _read_only(
        uniforms(seed, rep, hs.stream_keys(), QUERY_DRAW)))


def _allocation(hs: HypothesisSet, variant: str, key: tuple, n_b: float,
                utilities: Callable[[], np.ndarray], mode: StatMode,
                beta: float) -> tuple[AllocationResult, np.ndarray]:
    """``allocate_utilities(utilities(), n_b)`` with read-only levels, and
    a fresh array of the no-query values ``_active_plan`` makes from them
    for ``mode`` and ``beta``, which the run may write its values into.

    The levels are memoized per variant for the last ``key``.  The plan is
    memoized only when the same levels run again on the set, keyed by them
    and by the (e-or-p, beta) of the run; each run then takes a copy.  A
    set that runs each allocation once, as a CLI run or a replication does,
    keeps no plan.
    """
    entry = hs._memo.get(variant)
    if entry is None or entry[0] != key:
        hs._memo.pop(("plan", variant), None)
        alloc = allocate_utilities(utilities(), n_b)
        _read_only(alloc.h)
        hs._memo[variant] = (key, alloc)
        return alloc, _active_plan(alloc.h, mode, beta)
    alloc = entry[1]
    plan = _cached(hs._memo, ("plan", variant), (key, mode.is_e, beta),
                   lambda: _read_only(_active_plan(alloc.h, mode, beta)))
    return alloc, plan.copy()


def check_method_budget(variant: str, n_b: float, n: float = float("inf")) -> None:
    """Refuse a budget ``variant`` cannot spend on ``n`` hypotheses: every
    method takes one no larger than n, random a whole number >= 0 and the
    others a finite number above 0."""
    if variant == "random":
        n_b = check_whole("budget", n_b, 0)
    else:
        check_budget(n_b)
    check_real("budget", n_b, 0, n, closed=True)


def _random_subset(n: int, n_b: float, seed: int, rep: int) -> np.ndarray:
    """Query mask of a uniform subset of exactly ``n_b`` positions; 0 or n take no draw.

    A partial Fisher-Yates over positions, driven by its own purpose tag:
    step i swaps position i with j_i = i + floor(u_i (n - i)) and picks
    the value it finds at j_i.  That is j_i itself unless an earlier step
    targeted j_i; then it is what the last such step moved there, the
    value its own position held when it ran.  Position k held k at step k
    unless an earlier step targeted k, and then that step's value.  These
    chains only point back to earlier steps, and pointer jumping resolves
    them with whole-array operations.
    """
    n_b = int(n_b)
    queried = np.full(n, n_b == n)
    if n_b in (0, n):
        return queried
    steps = np.arange(n_b)
    draws = uniforms(seed, rep, steps, SUBSET_DRAW)
    targets = steps + (draws * (n - steps)).astype(np.intp)
    # steps grouped by target, in step order within a group: the keys are
    # unique, so any sort orders them as a stable sort of the targets would
    order = np.argsort(targets * n_b + steps)
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
    p-mode: max(0, 1 - beta * aux).  An aux outside its mode's domain is refused.
    """
    beta = check_beta(beta)
    check_choice("mode", mode, MODES)
    aux = check_domain(aux, f"aux {mode.kind[0]}-values", mode.is_p)
    if mode.is_e:
        # a subnormal aux overflows to -inf, probability 0
        with np.errstate(divide="ignore", over="ignore"):
            raw = 1.0 - beta / aux
        return np.where(aux > 0.0, np.maximum(0.0, raw), 0.0)
    return np.maximum(0.0, 1.0 - beta * aux)


def run_method(hs: HypothesisSet, method: MethodSpec, *, mode: StatMode, n_b: float,
               seed: int = DEFAULT_SEED, rep: int = 0,
               utility: Optional[str] = None) -> RunOutput:
    """Run one named method on the hypotheses.

    Each method picks a query mask, the no-query values and the rule for a
    queried row; the exact statistics are then read once, at the queried
    rows.  A value of ``aux`` or ``exact`` out of its mode's domain is
    refused with its id.  The budget ``n_b``, ``seed`` and ``rep`` are checked
    for every method, whether or not it uses them.  ``utility`` names the utility family
    that drives the active method's allocation; every method refuses a
    name that is not a family.  The per-hypothesis branch draws of active,
    active-xu and xu come from the counter-based stream keyed by id, and
    the set keeps those of the last (seed, rep).
    """
    if not isinstance(method, MethodSpec):
        raise DomainError(f"method must be a MethodSpec, got {method!r}")
    check_choice("mode", mode, MODES)
    variant, beta, seed, rep = method.variant, method.beta, _word(seed), _word(rep)
    try:
        _cached(hs._memo, "aux", mode.is_p,
                lambda: check_domain(hs.aux, f"aux {mode.kind[0]}-values", mode.is_p))
        n = len(hs)
        check_method_budget(variant, n_b, n)
        if utility is not None or variant == "active":
            check_family(utility)
        alloc = None
        if variant == "active":
            alloc, plan = _allocation(hs, variant, (utility, n_b), n_b,
                                      lambda: eval_utility(utility, hs.aux), mode, beta)
        elif variant == "active-xu":
            alloc, plan = _allocation(hs, variant, (beta, mode.is_e, n_b), n_b,
                                      lambda: xu_query_prob(hs.aux, beta, mode), mode, beta)
        elif variant == "xu":
            # no global budget: on no-query the auxiliary itself is reported
            h = xu_query_prob(hs.aux, beta, mode)
            queried = _branch_draws(hs, seed, rep) < h
            values = hs.aux.copy()
            rule = ((lambda exact: (1.0 - beta) * exact) if mode.is_e
                    else (lambda exact: exact / (1.0 - beta)))
        else:
            # random and all (the subset of every row) report the exact value, 1 elsewhere
            k = n if variant == "all" else int(n_b)
            queried = _random_subset(n, k, seed, rep)
            h = np.full(n, k / n)
            values, rule = np.ones(n), (lambda exact: exact)
        if alloc is None:
            _construct(values, np.flatnonzero(queried), hs.exact_at, mode, rule)
        else:
            h = alloc.h
            values, queried = active_values(h, _branch_draws(hs, seed, rep), hs.exact_at,
                                            mode, beta, plan=plan)
    except DegenerateUtilitiesError:
        # allocate_utilities cannot name the rule that gave every row a zero utility
        raise DegenerateUtilitiesError("all utilities are zero: " + (
            f"the {utility} family is 0 at every aux value; use method 'random'"
            if variant == "active" else
            f"the Xu rule is 0 at every aux e-value at or below beta = {beta!r}; use a "
            "beta below the largest aux e-value, or method 'random'")) from None
    except DomainError as exc:
        if exc.index is None:
            raise
        # a value out of its domain is named by its id, not its index
        hid = hs.ids[exc.index] if hs.ids is not None else str(exc.index)
        raise DomainError(f"{exc.rule} at id {hid!r}") from None
    return RunOutput(method=variant, values=values, queried=queried, h=h,
                     n_queries=int(np.count_nonzero(queried)), source_ids=hs.ids,
                     allocation=alloc)
