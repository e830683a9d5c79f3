"""Real-data workflows: delimited-table reading, summary-table alignment,
conformal p-values, and budgeted recovery against a full-information oracle.

The target table holds the expensive exact p-values and the auxiliary table
the cheap proxies.  After an inner join on the key column, a budgeted run
reads the target p-value column once, at the rows it queries.  The oracle
pass (the rejection set of the BY procedure run on every target p-value) is
the one sanctioned full read and is not counted as queries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Optional, Sequence

import numpy as np

from .core import P_INDEPENDENT
from .engine import HypothesisSet, MethodSpec, RunOutput, UniqueIds, run_method
from .errors import DataError, DomainError
from .allocation import UtilitySpec
from .procedures import by
from .rng import DEFAULT_SEED

__all__ = [
    "SummaryTable",
    "AlignedPair",
    "RecoveryResult",
    "read_columns",
    "read_summary_table",
    "align",
    "conformal_p",
    "oracle_recovery",
    "read_score_rows",
]

@dataclass(frozen=True)
class SummaryTable:
    """Keyed statistic column: one (key, value in [0, 1]) row per hypothesis.

    ``keys`` is held as ``UniqueIds``: keys given as one (as
    ``read_summary_table`` gives them) are kept as they are, and a repeat
    in any other sequence raises DataError naming ``source``.
    """

    keys: UniqueIds
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
        try:
            object.__setattr__(self, "keys", UniqueIds(self.keys))
        except DomainError as exc:
            raise DataError(f"{self.source or 'table'}: {exc}") from exc
        object.__setattr__(self, "stats", stats)

    def __len__(self) -> int:
        return len(self.keys)


def read_columns(path: str, key_col: str, value_cols: Sequence[str],
                 delimiter: Optional[str] = None,
                 unit_interval: bool = False) -> tuple[UniqueIds, list]:
    """Read a key column and numeric value columns from a delimited UTF-8 file.

    Returns ``(keys, values)``: the key strings in file order as
    ``UniqueIds``, certified by the reader's own duplicate check, and one
    float64 array per name in ``value_cols``.  The delimiter is sniffed from
    the header (tab wins over comma) unless given.  Blank lines are skipped,
    extra columns ignored and quoted fields accepted.  With
    ``unit_interval`` every value must lie in [0, 1].  Keys must be unique.
    Bad input raises DataError naming the file and the line.

    Plain blocks of lines (no quote character, the header's field count on
    every nonblank line) are split in bulk; anything else, including every
    fault, sends the whole file through the per-row ``csv.reader`` loop,
    which is the reference for values and the only source of messages.
    """
    try:
        # universal newlines: the bulk path sees every line end as "\n", and
        # the lines are the ones csv.reader gets from a newline="" file
        with open(path, "r", encoding="utf-8") as fh:
            delim, header, key_idx, value_idxs = _read_header(fh, path, key_col, value_cols,
                                                              delimiter)
            table = _parse_blocks(fh, delim, len(header), key_idx, value_idxs, unit_interval)
        if table is None:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                delim, header, key_idx, value_idxs = _read_header(fh, path, key_col,
                                                                  value_cols, delimiter)
                table = _parse_rows(fh, path, delim, header, key_col, key_idx, value_idxs,
                                    unit_interval)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    if not table[0]:
        raise DataError(f"{path}: no data rows after the header on line 1")
    return table


def _read_header(fh, path: str, key_col: str, value_cols: Sequence[str],
                 delimiter: Optional[str]):
    first = fh.readline()
    if not first:
        raise DataError(f"{path}: line 1: empty file")
    delim = delimiter or ("\t" if "\t" in first else ",")
    try:
        header = next(csv.reader([first], delimiter=delim))
    except csv.Error as exc:
        raise DataError(f"{path}: line 1: {exc}") from exc
    try:
        key_idx = header.index(key_col)
        value_idxs = [header.index(name) for name in value_cols]
    except ValueError as exc:
        raise DataError(
            f"{path}: line 1: missing column in header {header!r}, expected "
            f"{','.join([key_col, *value_cols])}: {exc}"
        ) from exc
    return delim, header, key_idx, value_idxs


# characters read per block: no larger than csv's default field limit, so a
# block within it needs no per-field length check
_BLOCK_CHARS = 1 << 16


def _blocks(fh):
    """Blocks of whole lines, each ending in "\n", with blank lines removed."""
    carry = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        if chunk:
            chunk = carry + chunk
            cut = chunk.rfind("\n") + 1
            block, carry = chunk[:cut], chunk[cut:]
        elif carry:
            block, carry = carry + "\n", ""
        else:
            return
        if block.startswith("\n") or "\n\n" in block:
            lines = [line for line in block.split("\n") if line]
            block = "\n".join(lines) + "\n" if lines else ""
        if block:
            yield block


def _parse_blocks(fh, delim: str, k: int, key_idx: int, value_idxs: list,
                  unit_interval: bool):
    """Bulk path: the table's (keys, values), or None to send the file to
    ``_parse_rows``.

    A block qualifies when it has no quote and every line holds the
    header's k fields.  It is split once, with each line end kept on the
    line's last field, so field j of row i is at i * k + j.  Every line
    has k fields exactly when the n line ends all fall in the n last-field
    slots.  ``float`` ignores the line end like any surrounding whitespace;
    a key in the last column has it stripped.
    """
    limit = csv.field_size_limit()
    keys = []
    columns = [[] for _ in value_idxs]
    for block in _blocks(fh):
        if '"' in block:
            return None
        n = block.count("\n")
        fields = block.replace("\n", "\n" + delim).split(delim)
        fields.pop()
        if len(fields) != n * k or "".join(fields[k - 1::k]).count("\n") != n:
            return None
        if len(block) > limit and max(map(len, fields)) > limit:
            return None
        try:
            for column, idx in zip(columns, value_idxs):
                values = np.fromiter(map(float, fields[idx::k]), np.float64, count=n)
                if unit_interval and not ((values >= 0.0) & (values <= 1.0)).all():
                    return None
                column.append(values)
        except ValueError:
            return None
        block_keys = fields[key_idx::k]
        if key_idx == k - 1:
            block_keys = list(map(str.rstrip, block_keys, repeat("\n")))
        keys += block_keys
    if len(set(keys)) != len(keys):
        return None
    return UniqueIds._unchecked(keys), [np.concatenate(c) if c else np.empty(0) for c in columns]


def _parse_rows(fh, path: str, delim: str, header: list, key_col: str, key_idx: int,
                value_idxs: list, unit_interval: bool):
    """Reference path: one ``csv.reader`` row at a time, raising on the
    first faulty line."""
    need = max(key_idx, *value_idxs)
    keys = []
    values = [[] for _ in value_idxs]
    first_line = {}
    reader = csv.reader(fh, delimiter=delim)
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) <= need:
                raise DataError(f"{path}: line {lineno}: expected {len(header)} fields")
            for column, idx in zip(values, value_idxs):
                raw = row[idx]
                try:
                    value = float(raw)
                except ValueError as exc:
                    raise DataError(
                        f"{path}: line {lineno}: malformed numeric value {raw!r}"
                    ) from exc
                if unit_interval and not 0.0 <= value <= 1.0:
                    raise DataError(
                        f"{path}: line {lineno}: statistic {raw!r} outside [0, 1]"
                    )
                column.append(value)
            key = row[key_idx]
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                raise DataError(
                    f"{path}: line {lineno}: duplicate {key_col} {key!r}, first on line {first}"
                )
            keys.append(key)
    except csv.Error as exc:
        # the reader started after the header line
        raise DataError(f"{path}: line {reader.line_num + 1}: {exc}") from exc
    # first_line has refused every repeat
    return UniqueIds._unchecked(keys), [np.asarray(column, dtype=np.float64) for column in values]


def _undecodable(path: str, exc: UnicodeDecodeError) -> DataError:
    """DataError naming the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    lineno = 1
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            break
    return DataError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})")


def read_summary_table(path: str, key_col: str, stat_col: str) -> SummaryTable:
    """Parse a delimited text file, its delimiter sniffed from the header,
    into a SummaryTable (see ``read_columns``)."""
    keys, (stats,) = read_columns(path, key_col, (stat_col,), unit_interval=True)
    return SummaryTable(keys=keys, stats=stats, source=path)


@dataclass(frozen=True)
class AlignedPair:
    """Inner join of a target and an auxiliary table, in target row order.

    Runs read the target statistics through ``to_hypotheses``, once per run
    at the queried rows; the oracle pass alone reads them all.

    ``keys`` is held as ``UniqueIds``, like ``SummaryTable.keys``.  Per-id
    work is done once per pair: ``to_hypotheses`` returns one memoized
    HypothesisSet that shares ``keys`` (and whose id-hashed stream keys are
    cached), and the oracle rejection set is memoized per ``alpha``.  Both
    statistic columns are read-only copies, so no write through the pair can
    desync those caches.
    """

    keys: UniqueIds
    aux_stats: np.ndarray
    target_stats: np.ndarray
    _hypotheses: Optional[HypothesisSet] = field(default=None, init=False, repr=False,
                                                 compare=False)
    _oracles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", UniqueIds(self.keys))
        for name in ("aux_stats", "target_stats"):
            stats = np.array(getattr(self, name), dtype=np.float64)
            stats.flags.writeable = False
            object.__setattr__(self, name, stats)

    def __len__(self) -> int:
        return len(self.keys)

    def to_hypotheses(self) -> HypothesisSet:
        if self._hypotheses is None:
            hs = HypothesisSet(aux=self.aux_stats, exact=self.target_stats, ids=self.keys)
            object.__setattr__(self, "_hypotheses", hs)
        return self._hypotheses

    def _oracle(self, alpha: float) -> np.ndarray:
        """Read-only BY rejection set on every target p-value, per alpha."""
        rejected = self._oracles.get(alpha)
        if rejected is None:
            rejected = by(self.target_stats, alpha).rejected
            rejected.flags.writeable = False
            self._oracles[alpha] = rejected
        return rejected


def align(target: SummaryTable, aux: SummaryTable) -> AlignedPair:
    """Inner join on key; output rows follow the target table's order.

    A subset of unique keys is unique, so the kept keys are not checked again.
    """
    index = dict(zip(aux.keys, range(len(aux))))
    pos = np.fromiter(map(index.get, target.keys, repeat(-1)), np.intp, count=len(target))
    hit = pos >= 0
    keys, tgt_vals = target.keys, target.stats
    if not hit.all():
        keys = UniqueIds._unchecked(compress(keys, hit.tolist()))
        tgt_vals, pos = tgt_vals[hit], pos[hit]
    if not keys:
        raise DataError("no keys in common between target and auxiliary tables")
    return AlignedPair(keys=keys, aux_stats=aux.stats[pos], target_stats=tgt_vals)


def conformal_p(calibration_scores, test_scores) -> np.ndarray:
    """Conformal p-values: (1 + #{calibration <= test}) / (n + 1).

    Low scores are evidence against the null, so a test score below every
    calibration score gets the smallest attainable value 1 / (n + 1).
    """
    cal = np.asarray(calibration_scores, dtype=np.float64)
    test = np.asarray(test_scores, dtype=np.float64)
    if cal.ndim != 1 or cal.size == 0:
        raise DomainError("calibration scores must form a nonempty vector")
    nan = np.isnan(np.concatenate((cal, test.ravel())))
    if nan.any():
        raise DomainError("scores must not contain NaN", index=int(nan.argmax()))
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
    method: str,
    alpha: float,
    seed: int = DEFAULT_SEED,
) -> RecoveryResult:
    """Run one budgeted method and compare with the oracle rejection set.

    The oracle is the BY procedure on every target p-value at ``alpha``.
    The method sees p-type auxiliaries weighed by ``PIPELINE_UTILITY``,
    spends at most the budget (exactly, for random), and its outputs go
    through the same BY procedure.  Efficiency is |recovered and oracle| /
    n_queries (0 when nothing was queried).  Both tables of p-values are
    assumed to come from distinct sources, hence the independent
    construction; for the general one, call ``run_method`` on
    ``aligned.to_hypotheses()``.  Repeated calls on one pair reuse its
    hashed ids and its oracle for ``alpha``.
    """
    if n_b <= 0:
        raise DomainError(f"budget must be positive, got {n_b!r}")
    oracle = aligned._oracle(alpha)
    out = run_method(aligned.to_hypotheses(), MethodSpec(str(method), beta=beta),
                     mode=P_INDEPENDENT, n_b=n_b, seed=seed, utility=PIPELINE_UTILITY)
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


def read_score_rows(path: str) -> tuple[np.ndarray, list]:
    """Read a single-column numeric file, tolerating one optional header
    row; returns the values and the line number of each."""
    values = []
    lines = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                field = text.split(",")[0].strip()
                try:
                    values.append(float(field))
                    lines.append(lineno)
                except ValueError:
                    if lineno == 1:
                        continue  # header row
                    raise DataError(f"{path}: line {lineno}: malformed numeric value {field!r}")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from exc
    if not values:
        raise DataError(f"{path}: no numeric rows")
    return np.asarray(values, dtype=np.float64), lines
