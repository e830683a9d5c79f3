"""Deterministic benchmark inputs: paired summary tables and an id,aux,exact CSV.

Every file is a pure function of its seed.  The pair generator is a port of
the acceptance suite's table writer: the first ``n_signal`` hypotheses carry
target p-values in [1e-9, 1e-6], the auxiliary p-value is the target times a
log-normal jitter (clipped to [0, 1]), and the target rows are written in a
seeded random order against the auxiliary table's key order, so the join
cannot walk both files in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CHUNK = 100_000  # rows per write call; keeps the generator's memory small


def key(i: int) -> str:
    """Key of hypothesis number ``i``."""
    return f"rs{i:06d}"


@dataclass(frozen=True)
class PairTables:
    """Arrays behind a generated pair, indexed by hypothesis number.

    No key list is kept: at a million rows it would weigh on the peak
    resident memory the benchmark reports for the program.
    """

    target: np.ndarray
    aux: np.ndarray
    order: np.ndarray  # target file row r holds hypothesis order[r]

    def __len__(self) -> int:
        return self.order.size

    def target_keys(self):
        """Keys in target-file row order: the order of every joined output."""
        return (key(i) for i in self.order.tolist())


def pair_tables(n: int, n_signal: int, seed: int) -> PairTables:
    rng = np.random.default_rng(seed)
    target = rng.uniform(size=n)
    target[:n_signal] = 10.0 ** rng.uniform(-9.0, -6.0, size=n_signal)
    jitter = 10.0 ** rng.normal(0.0, 0.4, size=n)
    aux = np.clip(target * jitter, 0.0, 1.0)
    order = rng.permutation(n)
    return PairTables(target=target, aux=aux, order=order)


def _write_table(path: Path, header: str, rows: np.ndarray, columns: list) -> None:
    """Write one line per hypothesis number in ``rows``: its key, then its
    value in each column, formatted with ``repr`` (shortest round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, rows.size, _CHUNK):
            chunk = rows[start:start + _CHUNK]
            fields = [[key(i) for i in chunk.tolist()]]
            fields += [list(map(repr, column[chunk].tolist())) for column in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_pair_tables(directory: Path, stem: str, pair: PairTables) -> tuple[Path, Path]:
    """Write ``<stem>_target.csv`` (shuffled rows) and ``<stem>_aux.csv``."""
    target_path = directory / f"{stem}_target.csv"
    aux_path = directory / f"{stem}_aux.csv"
    _write_table(target_path, "rsid,pval\n", pair.order, [pair.target])
    _write_table(aux_path, "rsid,pval\n", np.arange(len(pair)), [pair.aux])
    return target_path, aux_path


def write_run_csv(path: Path, pair: PairTables) -> None:
    """Write the pair as one ``id,aux,exact`` table in target-file row order."""
    _write_table(path, "id,aux,exact\n", pair.order, [pair.aux, pair.target])
