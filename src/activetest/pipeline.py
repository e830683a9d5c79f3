"""Real-data workflows: summary-table alignment, conformal p-values, and
budgeted recovery against a full-information oracle.

The target table holds the expensive exact p-values and the auxiliary table
the cheap proxies.  After an inner join on the key column, the target p-value
column is only read through the lazy query ledger, so a budgeted run touches
exactly as many target entries as it queries.  The oracle pass (the rejection
set of the BY procedure run on every target p-value) is the one sanctioned
full read and is exempt from the ledger.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import StatMode
from .engine import HypothesisSet, MethodSpec, RunOutput, run_method
from .errors import DataError, DomainError
from .allocation import UtilitySpec
from .procedures import by
from .rng import DEFAULT_SEED

__all__ = [
    "SummaryTable",
    "AlignedPair",
    "RecoveryResult",
    "read_summary_table",
    "align",
    "conformal_p",
    "oracle_recovery",
    "read_score_column",
]

_MAX_LISTED_DUPLICATES = 10


@dataclass(frozen=True)
class SummaryTable:
    """Keyed statistic column: one (key, value in [0, 1]) row per hypothesis."""

    keys: tuple
    stats: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        stats = np.asarray(self.stats, dtype=np.float64)
        if len(self.keys) != stats.size:
            raise DataError("keys and stats must align")
        if stats.size == 0:
            raise DataError("summary table is empty")
        if np.any(~np.isfinite(stats)) or np.any(stats < 0.0) or np.any(stats > 1.0):
            raise DataError("summary statistics must lie in [0, 1]")
        dup = _duplicates(self.keys)
        if dup:
            raise DataError(f"duplicate keys in {self.source or 'table'}: {dup}")
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "stats", stats)

    def __len__(self) -> int:
        return len(self.keys)


def _duplicates(keys: Sequence[str]) -> list:
    seen = set()
    dup = []
    for k in keys:
        if k in seen:
            if len(dup) < _MAX_LISTED_DUPLICATES:
                dup.append(k)
        else:
            seen.add(k)
    return dup


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def read_summary_table(path: str, key_col: str, stat_col: str,
                       delimiter: Optional[str] = None) -> SummaryTable:
    """Parse a delimited text file into a SummaryTable.

    The delimiter is sniffed from the header (tab wins over comma) unless
    given.  Malformed numeric fields are reported with their line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        delim = delimiter or _sniff_delimiter(first)
        header = next(csv.reader([first], delimiter=delim))
        try:
            key_idx = header.index(key_col)
            stat_idx = header.index(stat_col)
        except ValueError as exc:
            raise DataError(
                f"{path}: missing column in header {header!r}: {exc}"
            ) from exc
        keys = []
        stats = []
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not row:
                continue
            if len(row) <= max(key_idx, stat_idx):
                raise DataError(f"{path}: line {lineno}: expected {len(header)} fields")
            raw = row[stat_idx]
            try:
                value = float(raw)
            except ValueError as exc:
                raise DataError(
                    f"{path}: line {lineno}: malformed numeric value {raw!r}"
                ) from exc
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise DataError(
                    f"{path}: line {lineno}: statistic {raw!r} outside [0, 1]"
                )
            keys.append(row[key_idx])
            stats.append(value)
    if not keys:
        raise DataError(f"{path}: no data rows")
    return SummaryTable(keys=tuple(keys), stats=np.asarray(stats), source=path)


@dataclass(frozen=True)
class AlignedPair:
    """Inner join of a target and an auxiliary table, in target row order.

    The target statistics are private: runs read them through the lazy query
    ledger via ``to_hypotheses``; ``oracle_stats`` is the sanctioned
    ledger-exempt full view used for the oracle pass.

    Per-id work is done once per pair: ``to_hypotheses`` returns one memoized
    HypothesisSet (whose id-hashed stream keys are cached), and the oracle
    rejection set is memoized per ``alpha``.  Both statistic columns are
    read-only copies, so no write through the pair can desync those caches.
    """

    keys: tuple
    aux_stats: np.ndarray
    target_stats: np.ndarray
    _hypotheses: Optional[HypothesisSet] = field(default=None, init=False, repr=False,
                                                 compare=False)
    _oracles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        for name in ("aux_stats", "target_stats"):
            stats = np.array(getattr(self, name), dtype=np.float64)
            stats.flags.writeable = False
            object.__setattr__(self, name, stats)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def oracle_stats(self) -> np.ndarray:
        return self.target_stats

    def to_hypotheses(self) -> HypothesisSet:
        if self._hypotheses is None:
            hs = HypothesisSet(aux=self.aux_stats, exact=self.target_stats, ids=self.keys)
            object.__setattr__(self, "_hypotheses", hs)
        return self._hypotheses

    def _oracle(self, alpha: float) -> np.ndarray:
        """Read-only BY rejection set on every target p-value, per alpha."""
        rejected = self._oracles.get(alpha)
        if rejected is None:
            rejected = by(self.oracle_stats, alpha).rejected
            rejected.flags.writeable = False
            self._oracles[alpha] = rejected
        return rejected


def align(target: SummaryTable, aux: SummaryTable) -> AlignedPair:
    """Inner join on key; output rows follow the target table's order."""
    index = {k: i for i, k in enumerate(aux.keys)}
    keys, aux_vals, tgt_vals = [], [], []
    for i, k in enumerate(target.keys):
        j = index.get(k)
        if j is not None:
            keys.append(k)
            tgt_vals.append(target.stats[i])
            aux_vals.append(aux.stats[j])
    if not keys:
        raise DataError("no keys in common between target and auxiliary tables")
    return AlignedPair(keys=keys, aux_stats=aux_vals, target_stats=tgt_vals)


def conformal_p(calibration_scores, test_scores) -> np.ndarray:
    """Conformal p-values: (1 + #{calibration <= test}) / (n + 1).

    Low scores are evidence against the null, so a test score below every
    calibration score gets the smallest attainable value 1 / (n + 1).
    """
    cal = np.asarray(calibration_scores, dtype=np.float64)
    test = np.asarray(test_scores, dtype=np.float64)
    if cal.ndim != 1 or cal.size == 0:
        raise DomainError("calibration scores must form a nonempty vector")
    if np.any(np.isnan(cal)) or np.any(np.isnan(test)):
        raise DomainError("scores must not contain NaN")
    counts = np.searchsorted(np.sort(cal), test, side="right")
    return (1.0 + counts) / (cal.size + 1.0)


@dataclass(frozen=True)
class RecoveryResult:
    """Budgeted recovery outcome against the full-information oracle."""

    oracle: np.ndarray
    recovered: np.ndarray
    efficiency: float
    n_queries: int
    run: RunOutput


PIPELINE_UTILITY = UtilitySpec.log_inverse(eps=1e-8)


def oracle_recovery(
    aligned: AlignedPair,
    n_b: float,
    beta: float,
    method: Union[str, MethodSpec],
    alpha: float,
    seed: int = DEFAULT_SEED,
    rep: int = 0,
    utility: Optional[UtilitySpec] = None,
    stat_mode: Optional[StatMode] = None,
) -> RecoveryResult:
    """Run one budgeted method and compare with the oracle rejection set.

    The oracle is the BY procedure on every target p-value at ``alpha``.
    The method sees p-type auxiliaries, spends at most the budget (exactly,
    for random), and its outputs go through the same BY procedure.
    Efficiency is |recovered and oracle| / n_queries (0 when nothing was
    queried).  Both tables of p-values are assumed to come from distinct
    sources, hence the independent construction default.  Repeated calls
    on one pair reuse its hashed ids and its oracle for ``alpha``; each call
    still keeps its own query ledger.
    """
    if n_b <= 0:
        raise DomainError(f"budget must be positive, got {n_b!r}")
    oracle = aligned._oracle(alpha)
    spec = method if isinstance(method, MethodSpec) else MethodSpec(str(method), beta=beta)
    hs = aligned.to_hypotheses()
    out = run_method(
        hs,
        spec,
        mode=stat_mode if stat_mode is not None else StatMode("p_independent"),
        n_b=n_b,
        seed=seed,
        rep=rep,
        utility=utility if utility is not None else PIPELINE_UTILITY,
    )
    recovered = by(out.values, alpha).rejected
    overlap = np.intersect1d(recovered, oracle).size
    efficiency = overlap / out.n_queries if out.n_queries else 0.0
    return RecoveryResult(
        oracle=oracle,
        recovered=recovered,
        efficiency=float(efficiency),
        n_queries=out.n_queries,
        run=out,
    )


def read_score_column(path: str) -> np.ndarray:
    """Read a single-column numeric file, tolerating one optional header row."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            field = text.split(",")[0].strip()
            try:
                values.append(float(field))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise DataError(f"{path}: line {lineno}: malformed numeric value {field!r}")
    if not values:
        raise DataError(f"{path}: no numeric rows")
    return np.asarray(values, dtype=np.float64)
