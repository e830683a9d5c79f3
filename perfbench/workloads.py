"""The benchmark workloads: inputs, the ops of one body, output checks.

A workload prepares its inputs from the benchmark seed, then runs bodies: a
fixed list of ops, each one call into activetest.  CLI ops call
``activetest.cli.main`` in-process; the library op calls
``activetest.pipeline.oracle_recovery``.  Only the call is timed.  Each op's
check reads what the call produced and returns the failed checks, a
path-free digest of the output body and, for the ``active`` method, its
efficiency.

Why these workloads (each stresses layers the others leave idle; BENCHMARK.json
gates all but gwas-1m):

    desk            simulate: many small per-rep vectors through simulate,
                    engine, core, allocation and procedures; no ids, no
                    files read, so id hashing, pipeline and CLI input do no
                    work and table-path changes should predict no change.
    gwas-100k       gwas on 100k-row paired tables: parse, hash join, one
                    id-hash pass and row formatting dominate; the engine is
                    a small share.
    gwas-1m         the same at 1M rows, the table path at scale.  On a
                    shared 2-vCPU host its time followed memory contention
                    that the reference loop does not see: ten seeded runs
                    spread by 0.28 (quartile distance over median), past the
                    largest allowed bound, so it is not gated; run it by
                    name.
    run-csv         run on a 100k-row id,aux,exact CSV, once per method: the
                    CLI's own reader and RunOutput.to_csv replace the gwas
                    table path, and every call re-reads its input.
    recovery-sweep  the library path: oracle_recovery for seeds 0..9 x three
                    methods on one pair read and aligned in set-up; every
                    call rebuilds the hypothesis set and re-hashes every id,
                    so caching or batching shows here and not on the gwas
                    workloads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import inputs

METHODS = ("active", "active-xu", "xu", "random", "all")
ALPHA = 0.1
PROGRAM_SEED = 42  # method draws; the benchmark seed only shapes the inputs

# (workload, op label, check) pairs that fail because of a known program
# defect.  They are reported by name and do not fail the run; every other
# failed check does.
KNOWN_DEFECTS = {
    ("run-csv", "all", "output-ids"):
        "run-all-ids: `run --method all` writes row numbers instead of the input ids",
}


@dataclass
class Outcome:
    failures: list = field(default_factory=list)  # (check, detail)
    digest: bytes = b""
    efficiency: Optional[float] = None

    def expect(self, check: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            self.failures.append((check, detail))
        return ok


@dataclass
class Op:
    label: str
    span: str                      # name of the op's top-level span when traced
    call: Callable[[], object]     # the timed call into activetest
    check: Callable[[object], Outcome]


def _cli_main(argv: list) -> Callable[[], int]:
    import activetest.cli

    # resolve main at call time so a traced body sees the patched module
    return lambda: activetest.cli.main(argv)


def _rows(path: Path, out: Outcome):
    """Header dict and an iterator over the split body rows of a CLI output.

    The body (every line after the '#' header) feeds a running digest, so
    the digest is free of the paths the header echoes.
    """
    fh = open(path, encoding="utf-8")
    header = {}
    line = fh.readline()
    while line.startswith("#"):
        key, sep, value = line[1:].partition("=")
        if sep:
            header[key.strip()] = value.strip()
        line = fh.readline()
    digest = hashlib.sha256()

    def body():
        with fh:
            current = line
            while current:
                digest.update(current.encode("utf-8"))
                yield current.rstrip("\n").split(",")
                current = fh.readline()
        out.digest = digest.digest()

    return header, body()


def _check_id_rows(out: Outcome, path: Path, columns: list, expected_ids, *,
                   random_budget: Optional[int] = None, keep_values: bool = False):
    """Checks shared by the per-hypothesis outputs of ``gwas`` and ``run``.

    Columns are (id, p-value, queried flag, ...).  Returns the header and,
    when asked, the value column as an array.
    """
    header, rows = _rows(path, out)
    out.expect("columns", next(rows, None) == columns)
    n_true = n_rows = bad_values = bad_flags = bad_ids = 0
    first_bad_id = ""
    values = [] if keep_values else None
    expected = iter(expected_ids)
    for row in rows:
        n_rows += 1
        hid, value, flag = row[0], float(row[1]), row[2]
        if values is not None:
            values.append(value)
        if not 0.0 <= value <= 1.0:
            bad_values += 1
        if flag == "true":
            n_true += 1
        elif flag != "false":
            bad_flags += 1
        if len(row) > 3 and (row[3] == "query") != (flag == "true"):
            bad_flags += 1
        if hid != next(expected, None):
            if not bad_ids:
                first_bad_id = f"row {n_rows}: {hid!r}"
            bad_ids += 1
    missing = sum(1 for _ in expected)
    n_queries = int(header.get("n_queries", -1))
    out.expect("n-queries-matches-rows", n_queries == n_true,
               f"header {n_queries} vs {n_true} true rows")
    out.expect("values-in-domain", bad_values == 0, f"{bad_values} p-values outside [0, 1]")
    out.expect("queried-flags", bad_flags == 0, f"{bad_flags} bad queried/branch fields")
    out.expect("output-ids", bad_ids == 0 and missing == 0,
               f"{bad_ids} ids differ from the input ({first_bad_id}), {missing} missing")
    if random_budget is not None:
        out.expect("random-queries-exact", n_queries == random_budget,
                   f"{n_queries} queries for budget {random_budget}")
    return header, (np.asarray(values) if keep_values else None)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, call) -> None:
        """Generate and write inputs.  ``call(span, fn)`` runs a program call
        in the set-up, traced when the set-up is."""

    def warm_up_ops(self) -> list:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError


class Desk(Workload):
    name = "desk"
    CELLS = (
        ("signal-e", ["--dgp", "signal", "--mode", "e", "--pi", "0.2"]),
        ("noisy-p", ["--dgp", "noisy", "--mode", "p", "--sigma", "3"]),
        ("correlated-e", ["--dgp", "correlated", "--mode", "e", "--rho", "0.5"]),
    )
    N, BUDGET, REPS = 2000, 100, 200

    def _op(self, label, cell, n, reps) -> Op:
        out = self.workdir / f"desk_{label}.csv"
        argv = ["simulate", *cell, "--n", str(n), "--budget", str(self.BUDGET),
                "--reps", str(reps), "--seed", str(self.seed), "--threads", "1",
                "--methods", ",".join(METHODS), "--out", str(out)]
        return Op(label, "cli.main", _cli_main(argv),
                  lambda rc: self._check(rc, out, n, reps))

    def warm_up_ops(self) -> list:
        return [self._op(label, cell, 200, 2) for label, cell in self.CELLS]

    def ops(self) -> list:
        return [self._op(label, cell, self.N, self.REPS) for label, cell in self.CELLS]

    def _check(self, rc, path: Path, n: int, reps: int) -> Outcome:
        out = Outcome()
        if not out.expect("exit-code", rc == 0, f"exit {rc}"):
            return out
        _, rows = _rows(path, out)
        out.expect("columns", next(rows, None) == "method,rep,fdp,tpp,queries,efficiency".split(","))
        seen = []
        for method, rep, fdp, tpp, queries, eff in rows:
            seen.append((method, int(rep)))
            fdp, tpp, queries, eff = float(fdp), float(tpp), int(queries), float(eff)
            out.expect("values-in-domain", 0 <= fdp <= 1 and 0 <= tpp <= 1 and 0 <= eff <= 1
                       and 0 <= queries <= n, f"{method} rep {rep}")
            if method == "random":
                out.expect("random-queries-exact", queries == self.BUDGET,
                           f"rep {rep}: {queries} queries for budget {self.BUDGET}")
            if method == "all":
                out.expect("all-queries-everything", queries == n, f"rep {rep}: {queries}")
        out.expect("rows", seen == [(m, r) for r in range(reps) for m in METHODS],
                   f"{len(seen)} rows for {reps} reps x {len(METHODS)} methods")
        body_digest = out.digest
        _, agg = _rows(path.with_name(path.stem + "_agg.csv"), out)
        cols = next(agg, None)
        out.expect("agg-columns", cols is not None and cols[:8] == [
            "method", "fdr", "fdr_se", "tpr", "tpr_se", "queries_mean",
            "efficiency_mean", "efficiency_se"])
        methods = []
        for row in agg:
            methods.append(row[0])
            fdr, tpr, eff = float(row[1]), float(row[3]), float(row[6])
            out.expect("agg-in-domain", 0 <= fdr <= 1 and 0 <= tpr <= 1 and 0 <= eff <= 1,
                       row[0])
            if row[0] == "active":
                out.efficiency = eff
        out.expect("agg-methods", methods == list(METHODS), ",".join(methods))
        out.digest = body_digest + out.digest
        return out


class Gwas(Workload):
    name = "gwas-100k"
    N = 100_000
    SIGNALS, BUDGET = N // 200, N // 20

    def prepare(self, call) -> None:
        self.big = inputs.pair_tables(self.N, self.SIGNALS, self.seed)
        self.big_paths = inputs.write_pair_tables(self.workdir, "big", self.big)
        self.small = inputs.pair_tables(self.N // 100, self.SIGNALS // 100, self.seed)
        self.small_paths = inputs.write_pair_tables(self.workdir, "small", self.small)

    def _op(self, label, pair, paths, budget) -> Op:
        out = self.workdir / f"gwas_{label}.csv"
        argv = ["gwas", "--target", str(paths[0]), "--aux", str(paths[1]),
                "--budget", str(budget), "--method", "active", "--alpha", str(ALPHA),
                "--seed", str(PROGRAM_SEED), "--out", str(out)]
        return Op(label, "cli.main", _cli_main(argv), lambda rc: self._check(rc, out, pair))

    def warm_up_ops(self) -> list:
        return [self._op("small", self.small, self.small_paths, self.BUDGET // 100)]

    def ops(self) -> list:
        return [self._op("big", self.big, self.big_paths, self.BUDGET)]

    def _check(self, rc, path: Path, pair) -> Outcome:
        out = Outcome()
        if not out.expect("exit-code", rc == 0, f"exit {rc}"):
            return out
        header, _ = _check_id_rows(out, path, ["key", "active_p", "queried"],
                                   pair.target_keys())
        out.efficiency = float(header.get("efficiency", "nan"))
        out.expect("efficiency-in-domain", 0.0 <= out.efficiency <= 1.0, str(out.efficiency))
        return out


class RunCsv(Workload):
    name = "run-csv"
    N, SIGNALS, BUDGET = 100_000, 500, 5000
    RUNS = (("active", "p-independent"), ("active-xu", "p-general"), ("xu", "p-independent"),
            ("random", "p-independent"), ("all", "p-independent"))

    def prepare(self, call) -> None:
        self.big = inputs.pair_tables(self.N, self.SIGNALS, self.seed)
        self.small = inputs.pair_tables(self.N // 100, self.SIGNALS // 100, self.seed)
        self.big_path = self.workdir / "run_big.csv"
        self.small_path = self.workdir / "run_small.csv"
        inputs.write_run_csv(self.big_path, self.big)
        inputs.write_run_csv(self.small_path, self.small)
    def _ops(self, pair, path, budget) -> list:
        from activetest.procedures import by

        # oracle: BY on every exact statistic, in file row order
        oracle = by(pair.target[pair.order], ALPHA).rejected
        ops = []
        for method, mode in self.RUNS:
            out = self.workdir / f"run_out_{method}.csv"
            argv = ["run", "--input", str(path), "--mode", mode, "--method", method,
                    "--budget", str(budget), "--seed", str(PROGRAM_SEED), "--out", str(out)]
            ops.append(Op(method, "cli.main", _cli_main(argv),
                          lambda rc, out=out, method=method:
                          self._check(rc, out, method, pair, budget, oracle)))
        return ops

    def warm_up_ops(self) -> list:
        return self._ops(self.small, self.small_path, self.BUDGET // 100)

    def ops(self) -> list:
        return self._ops(self.big, self.big_path, self.BUDGET)

    def _check(self, rc, path: Path, method: str, pair, budget: int, oracle) -> Outcome:
        from activetest.procedures import by

        out = Outcome()
        if not out.expect("exit-code", rc == 0, f"exit {rc}"):
            return out
        header, values = _check_id_rows(
            out, path, ["id", "value", "queried", "branch", "h"], pair.target_keys(),
            random_budget=budget if method == "random" else None,
            keep_values=method == "active")
        if method == "active":
            recovered = by(values, ALPHA).rejected
            n_queries = int(header["n_queries"])
            overlap = np.intersect1d(recovered, oracle).size
            out.efficiency = overlap / n_queries if n_queries else 0.0
        return out


class RecoverySweep(Workload):
    name = "recovery-sweep"
    N, SIGNALS, BUDGET = 100_000, 500, 5000
    SEEDS = range(10)
    SWEEP_METHODS = ("active", "active-xu", "random")

    def prepare(self, call) -> None:
        from activetest.pipeline import align, read_summary_table

        pair = inputs.pair_tables(self.N, self.SIGNALS, self.seed)
        target_path, aux_path = inputs.write_pair_tables(self.workdir, "rec", pair)
        target = call("pipeline.read", lambda: read_summary_table(str(target_path), "rsid", "pval"))
        aux = call("pipeline.read", lambda: read_summary_table(str(aux_path), "rsid", "pval"))
        self.aligned = call("pipeline.align", lambda: align(target, aux))
        self.expected_ids = list(pair.target_keys())
        if list(self.aligned.keys) != self.expected_ids:
            raise RuntimeError("align: joined keys differ from the target row order")

    def _op(self, seed: int, method: str) -> Op:
        from activetest import pipeline

        def call():
            return pipeline.oracle_recovery(self.aligned, n_b=float(self.BUDGET), beta=0.5,
                                            method=method, alpha=ALPHA, seed=seed)
        return Op(f"seed{seed}-{method}", "pipeline.recovery", call,
                  lambda result: self._check(result, method))

    def warm_up_ops(self) -> list:
        return [self._op(0, method) for method in self.SWEEP_METHODS]

    def ops(self) -> list:
        return [self._op(seed, method) for seed in self.SEEDS for method in self.SWEEP_METHODS]

    def _check(self, result, method: str) -> Outcome:
        out = Outcome()
        run = result.run
        values = np.asarray(run.values)
        queried = np.asarray(run.queried, dtype=bool)
        out.expect("n-queries-matches-rows", result.n_queries == np.count_nonzero(queried),
                   f"{result.n_queries} vs {np.count_nonzero(queried)} queried rows")
        out.expect("values-in-domain",
                   bool(np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))))
        out.expect("output-ids", run.ids == self.expected_ids)
        if method == "random":
            out.expect("random-queries-exact", result.n_queries == self.BUDGET,
                       f"{result.n_queries} queries for budget {self.BUDGET}")
        recovered = np.asarray(result.recovered, dtype=np.int64)
        out.expect("recovered-in-range",
                   bool(np.all((recovered >= 0) & (recovered < values.size))))
        out.expect("efficiency-in-domain", 0.0 <= result.efficiency <= 1.0,
                   str(result.efficiency))
        if method == "active":
            out.efficiency = result.efficiency
        out.digest = hashlib.sha256(values.tobytes() + queried.tobytes()
                                    + recovered.tobytes()).digest()
        return out


class GwasBig(Gwas):
    name = "gwas-1m"
    N = 1_000_000
    SIGNALS, BUDGET = N // 200, N // 20


WORKLOADS = {w.name: w for w in (Desk, Gwas, GwasBig, RunCsv, RecoverySweep)}


def mean_efficiency(outcomes: list) -> float:
    found = [o.efficiency for o in outcomes if o.efficiency is not None]
    return math.fsum(found) / len(found) if found else float("nan")
