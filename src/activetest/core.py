"""Single-hypothesis active statistic constructions.

An *active* statistic spends a query on the exact statistic only with
probability controlled by a cheap auxiliary value.  Writing h for the
allocation level attached to the hypothesis (query probability min(1, h)) and
beta in (0, 1) for the split parameter:

* e-values: on no-query the statistic is beta / (1 - h); on query the exact
  e-value is scaled by (1 - beta) / h.
* p-values, auxiliary independent of the exact p-value: no-query gives
  (1 - h) / beta; on query the exact p-value is scaled by h / (1 - beta).
* p-values, arbitrary dependence: the query scale becomes 1 / (1 - beta).

p-type outputs are reported clamped to [0, 1].  Both constructions keep the
usual guarantees: supermartingale-style mean bound E[output] <= 1 for
e-values, super-uniformity P(output <= s) <= s for p-values, whenever the
exact statistic is itself valid.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "ActiveOutcome",
    "StatMode",
    "E_VALUES",
    "P_INDEPENDENT",
    "P_GENERAL",
    "active_e",
    "active_p",
    "active_values",
]


def as_floats(x, name: str) -> np.ndarray:
    """``x`` (numbers, an array or an iterator) as a float64 array, itself
    when it is one: the one rule that refuses values that are not numbers."""
    try:
        return np.asarray(list(x) if hasattr(x, "__next__") else x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be numbers: {exc}") from exc


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _column(x, name: str) -> np.ndarray:
    """``as_floats(x, name)`` as a value column: a read-only float64 array,
    taken as is when it already is one, and otherwise copied once."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x if not x.flags.writeable else _read_only(np.array(x))
    column = as_floats(x, name)
    if not column.ndim:
        raise DomainError(f"{name} must be numbers: got {x!r}, not a column")
    return _read_only(column)


def check_draws(u) -> np.ndarray:
    """Branch draws ``u`` as float64, each refused unless it lies in [0, 1)."""
    u = as_floats(u, "u")
    # min and max are nan when any draw is
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        i = int(np.flatnonzero(~((u >= 0.0) & (u < 1.0)))[0])
        raise DomainError(f"branch draw u must lie in [0, 1), got {float(u.flat[i])!r} "
                          f"at position {i}")
    return u


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)``, or its type if it holds an int past the int-to-str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"a value too long to show ({type(value).__name__})"


def check_real(name: str, value, low, high, closed: bool = False):
    """``value``, refused unless it is a real number, not a bool, inside
    (``low``, ``high``), or inside [``low``, ``high``] when ``closed``."""
    if not (_real(value) and (low <= value <= high if closed else low < value < high)):
        interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise DomainError(f"{name} must lie in {interval}, got {_shown(value)}")
    return value


def check_beta(beta: float) -> float:
    return float(check_real("beta", beta, 0, 1))


def _whole(value) -> Optional[int]:
    """The int a real whole number, not a bool, equals, else None: exact for
    any real, an int of any size included, as no value goes through float."""
    try:
        return int(value) if _real(value) and int(value) == value else None
    except (ValueError, OverflowError):  # nan and the infinities
        return None


def check_whole(name: str, value, low: int) -> int:
    """``value`` as an int: a whole real number from ``low`` up to the largest array size."""
    whole, top = _whole(value), int(np.iinfo(np.intp).max)
    if whole is None or not low <= whole <= top:
        bound = f"<= {top}" if whole is not None and whole > top else f">= {low}"
        raise DomainError(f"{name} must be a whole number {bound}, got {_shown(value)}")
    return whole


def check_choice(name: str, value, choices: tuple):
    """``value``, refused unless it is one of ``choices``; an unhashable value never is."""
    if type(value).__hash__ is None or value not in choices:
        raise DomainError(f"{name} must be one of {choices}, got {_shown(value)}")
    return value


def check_vector(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, refused unless it has one axis and a value."""
    arr = as_floats(x, name)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must form a nonempty vector")
    return arr


@dataclass(frozen=True)
class ActiveOutcome:
    """Result of one active construction: its value, and whether it queried."""

    value: float
    queried: bool


@dataclass(frozen=True)
class StatMode:
    """Statistic kind: ``e``, ``p_independent`` or ``p_general``."""

    kind: str

    def __post_init__(self) -> None:
        check_choice("statistic mode", self.kind, _KINDS)

    @property
    def is_e(self) -> bool:
        return self.kind == "e"

    @property
    def is_p(self) -> bool:
        return not self.is_e


_KINDS = ("e", "p_independent", "p_general")
MODES = E_VALUES, P_INDEPENDENT, P_GENERAL = tuple(map(StatMode, _KINDS))
P_MODES = MODES[1:]

Lazy = Union[float, Callable[[], float]]


def _active_one(exact: Lazy, h: float, beta: float, mode: StatMode, u: float) -> ActiveOutcome:
    """``active_values`` on one hypothesis; ``exact`` is evaluated only on query."""
    fetch = lambda idx: [exact() if callable(exact) else exact for _ in idx]
    h, u = as_floats([h], "h"), as_floats([u], "u")
    if h.shape != (1,) or u.shape != (1,):
        raise DomainError(f"{'h' if h.shape != (1,) else 'u'} must be one number")
    values, queried = active_values(h, u, fetch, mode, beta)
    return ActiveOutcome(value=float(values[0]), queried=bool(queried[0]))


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
    auxiliary is independent of the exact p-value, 1 / (1 - beta) under
    arbitrary dependence.
    """
    check_choice("mode", mode, P_MODES)
    return _active_one(p_exact, h, beta, mode, u)


def active_values(
    h: np.ndarray,
    u: np.ndarray,
    fetch_exact: Callable[[np.ndarray], np.ndarray],
    mode: StatMode,
    beta: float,
    *,
    plan: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized active construction.

    ``h`` must form a nonempty vector (``check_vector``), and ``u`` must
    align with it.  ``fetch_exact`` receives the integer indices of the
    query branch only and returns the exact statistics for those positions.
    Returns (values, queried) aligned with ``h``.  ``active_e`` /
    ``active_p`` are its one-element form.

    ``plan`` is the engine's: an array of the no-query values
    ``_active_plan`` made from these ``h``, ``mode`` and ``beta``, passed
    with its hypothesis set's own draws ``u``, which lie in (0, 1).  Neither
    is checked again, and the values are written into ``plan`` and returned
    as it.
    """
    beta = check_beta(beta)
    check_choice("mode", mode, MODES)
    h = check_vector(h, "h")
    if plan is None:
        u = check_draws(u)
        if h.shape != u.shape:
            raise DomainError("h and u must be aligned")
        values = _active_plan(h, mode, beta)
    else:
        values = plan
    # every draw lies in [0, 1), so u < h is u < min(1, h)
    queried = u < h
    query_idx = np.flatnonzero(queried)
    h_queried = h[query_idx]
    if mode.is_e:
        # a level near 0 is queried only on a caller's draw of 0: its scale may be inf
        with np.errstate(over="ignore"):
            scale = (1.0 - beta) / h_queried
    else:
        scale = (h_queried if mode.kind == "p_independent" else 1.0) / (1.0 - beta)
    _construct(values, query_idx, fetch_exact, mode, lambda exact: scale * exact)
    return values, queried


def _active_plan(h: np.ndarray, mode: StatMode, beta: float) -> np.ndarray:
    """The seed-free half of ``active_values``: check the levels ``h`` and
    return the no-query value of every row.

    A draw is below 1, so each row with h >= 1 (whose value here is inf or
    out of domain) is queried, and the construction overwrites it.
    """
    check_domain(h, "allocation levels", False)
    values = np.subtract(1.0, h)
    if mode.is_e:
        with np.errstate(divide="ignore"):
            return np.divide(beta, values, out=values)
    values /= beta
    return np.minimum(values, 1.0, out=values)


def _construct(values: np.ndarray, query_idx: np.ndarray, fetch_exact: Callable, mode: StatMode,
               rule: Callable[[np.ndarray], np.ndarray]) -> None:
    """The tail of every method: read the exact statistics once, at the rows
    ``query_idx``, through ``fetch_exact``, check their domain, and write
    ``rule(exact)`` over the no-query ``values`` there.  A p-type output is
    capped at 1; an exact e-value 0 at an infinite scale stays 0."""
    exact = check_domain(fetch_exact(query_idx), f"exact {mode.kind[0]}-values", mode.is_p,
                         query_idx)
    with np.errstate(over="ignore", invalid="ignore"):
        out = rule(exact)
    values[query_idx] = np.minimum(1.0, out) if mode.is_p else np.where(np.isnan(out), 0.0, out)


def check_domain(x, name: str, unit: bool, rows=None) -> np.ndarray:
    """The one domain rule for a statistic, a utility or a level: ``x`` as a
    float64 array (``as_floats``), refused if a value lies outside [0, 1] when
    ``unit`` (a p-value), else if one is not finite and >= 0 (an e-value, a
    utility, a level).  The error names the first offender's value and index
    (``rows[i]``, or its flat position i), and carries that index."""
    x = as_floats(x, name)
    if not x.size:
        return x
    # min and max are nan when any value is; the mask is built only to name it
    top = x.max()
    if x.min() >= 0.0 and (top <= 1.0 if unit else top < np.inf):
        return x
    bad = ~np.isfinite(x) | (x < 0.0)
    if unit:
        bad |= x > 1.0
    i = int(np.flatnonzero(bad)[0])
    rule = "lie in [0, 1]" if unit else "be finite and >= 0"
    raise DomainError(f"{name} must {rule}, got {float(x.flat[i])!r}",
                      index=i if rows is None else int(rows[i]))


def check_evalues(x: np.ndarray, name: str) -> None:
    """The e-value rule of e-BH: refuse a value of ``x`` that is not >= 0,
    NaN included, but take +inf, unlike ``check_domain``."""
    if x.size and not x.min() >= 0.0:
        i = int((~(x >= 0.0)).argmax())
        raise DomainError(f"{name} must be >= 0, got {float(x.flat[i])!r}", index=i)

