"""Command line interface.

Subcommands: simulate, run, gwas, conformal, mt.  Every run echoes its full
resolved configuration into the output header as '#'-prefixed comment lines,
writes outputs atomically (temp file + rename, never a partial file), and
exits 0 on success, 1 on usage errors, 2 on data or domain errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from . import __version__ as VERSION
from .core import StatMode
from .engine import HypothesisSet, MethodSpec, csv_text, run_method
from .errors import ActiveTestError, DataError, DomainError
from .allocation import DIRECTIONS
from .pipeline import (
    align,
    conformal_p,
    oracle_recovery,
    read_columns,
    read_score_rows,
    read_summary_table,
)
from .procedures import bh, by, ebh
from .rng import DEFAULT_SEED
from .simulate import DgpSpec, run_experiment

PROG = "activetest"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DATA = 2

# run --utility default per utility direction that fits the mode: large
# e-values and small p-values are the promising ones
_DEFAULT_UTILITY = {"direct": "log1p", "inverse": "log_inverse"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def atomic_write_text(path: str, text: str) -> None:
    """Write the fully rendered text, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-activetest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_header(config: dict) -> str:
    lines = [f"# {PROG} {VERSION}"]
    for key, value in config.items():
        lines.append(f"# {key} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_header(text: str) -> dict:
    """Recover the key = value pairs from a '#'-prefixed output header."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            out[key.strip()] = value.strip()
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="Budget-constrained active hypothesis testing")
    parser.add_argument("--version", action="version", version=f"{PROG} {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replicate a synthetic DGP and score methods")
    sim.add_argument("--dgp", choices=["signal", "noisy", "correlated"], required=True)
    sim.add_argument("--mode", choices=["e", "p"], default="e")
    sim.add_argument("--n", type=int, default=2000)
    sim.add_argument("--pi", type=float, default=0.1)
    sim.add_argument("--sigma", type=float, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--budget", type=float, default=100.0)
    sim.add_argument("--beta", type=float, default=0.5)
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--methods", default="active,active-xu,xu,random,all",
                     help="comma-separated subset of active,active-xu,xu,random,all")
    sim.add_argument("--out", required=True, help="per-replication metrics CSV")
    sim.add_argument("--agg-out", default=None,
                     help="aggregate metrics CSV (default: <out stem>_agg.csv)")

    run = sub.add_parser("run", help="run one method on a CSV of hypotheses")
    run.add_argument("--input", required=True, help="CSV with columns id,aux,exact")
    run.add_argument("--mode", choices=["e", "p-independent", "p-general"], required=True)
    run.add_argument("--method", choices=["active", "active-xu", "xu", "random", "all"],
                     default="active")
    run.add_argument("--budget", type=float, default=None)
    run.add_argument("--beta", type=float, default=0.5)
    run.add_argument("--utility", choices=list(DIRECTIONS), default=None,
                     help="utility family of the active method; "
                          "default log1p for --mode e, log_inverse for the p modes")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", required=True)

    gwas = sub.add_parser("gwas", help="budgeted recovery on paired summary tables")
    gwas.add_argument("--target", required=True, help="expensive summary statistics file")
    gwas.add_argument("--aux", required=True, help="cheap auxiliary summary statistics file")
    gwas.add_argument("--key-col", default="rsid")
    gwas.add_argument("--p-col", default="pval")
    gwas.add_argument("--budget", type=float, required=True)
    gwas.add_argument("--beta", type=float, default=0.5)
    gwas.add_argument("--alpha", type=float, default=0.1)
    gwas.add_argument("--method", choices=["active", "active-xu", "xu", "random", "all"],
                      default="active")
    gwas.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gwas.add_argument("--out", required=True)

    conf = sub.add_parser("conformal", help="conformal p-values from score files")
    conf.add_argument("--cal", required=True, help="calibration scores, one per line")
    conf.add_argument("--test", required=True, help="test scores, one per line")
    conf.add_argument("--out", required=True)

    mt = sub.add_parser("mt", help="multiple testing on a statistic file")
    mt.add_argument("--procedure", choices=["bh", "by", "ebh"], required=True)
    mt.add_argument("--alpha", type=float, default=0.1)
    mt.add_argument("--input", required=True, help="single-column statistic file")
    mt.add_argument("--out", default=None, help="write rejected ids here instead of stdout")
    return parser


def _cmd_simulate(args) -> int:
    spec = DgpSpec(kind=args.dgp, n=args.n, pi=args.pi, alpha=args.alpha,
                   sigma=args.sigma, rho=args.rho)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    result = run_experiment(spec, methods, n_b=args.budget, beta=args.beta, reps=args.reps,
                            seed=args.seed, mode=args.mode, threads=args.threads)
    config = {
        "command": "simulate",
        "dgp": spec.kind,
        "mode": args.mode,
        "n": spec.n,
        "pi": spec.pi,
        "sigma": spec.sigma,
        "rho": spec.rho,
        "alpha": spec.alpha,
        "tau_sq": spec.tau_sq,
        "lambda": spec.lam,
        "budget": args.budget,
        "beta": args.beta,
        "reps": args.reps,
        "seed": args.seed,
        "threads": args.threads,
        "methods": ",".join(methods),
    }
    header = config_header(config)
    agg_out = args.agg_out
    if agg_out is None:
        stem, ext = os.path.splitext(args.out)
        agg_out = f"{stem}_agg{ext or '.csv'}"
    atomic_write_text(args.out, header + result.per_rep_csv())
    atomic_write_text(agg_out, header + result.aggregate_csv())
    return _EXIT_OK


def _cmd_run(args) -> int:
    needs_budget = args.method in ("active", "active-xu", "random")
    if needs_budget and args.budget is None:
        raise _UsageError(f"--budget is required for method {args.method!r}")
    mode = StatMode(args.mode.replace("-", "_"))
    fitting = "direct" if mode.is_e else "inverse"
    utility = args.utility or _DEFAULT_UTILITY[fitting]
    if args.method == "active" and DIRECTIONS[utility] != fitting:
        print(f"{PROG}: warning: utility {utility!r} is {DIRECTIONS[utility]}, but "
              f"--mode {args.mode} wants a {fitting} family; the budget goes to the "
              f"least promising hypotheses", file=sys.stderr)
    method = MethodSpec(args.method, beta=args.beta)
    table = _read_run_input(args.input)
    n_b = args.budget if args.budget is not None else float(len(table))
    out = run_method(table, method, mode=mode, n_b=n_b, seed=args.seed, utility=utility)
    config = {
        "command": "run",
        "input": args.input,
        "mode": args.mode,
        "method": args.method,
        "budget": args.budget,
        "beta": args.beta,
        "utility": utility,
        "seed": args.seed,
    }
    summary = f"# n_queries = {out.n_queries}\n"
    atomic_write_text(args.out, config_header(config) + summary + out.to_csv())
    return _EXIT_OK


def _read_run_input(path: str) -> HypothesisSet:
    ids, (aux, exact) = read_columns(path, "id", ("aux", "exact"), delimiter=",")
    return HypothesisSet(aux=aux, exact=exact, ids=ids)


def _cmd_gwas(args) -> int:
    target = read_summary_table(args.target, args.key_col, args.p_col)
    aux = read_summary_table(args.aux, args.key_col, args.p_col)
    aligned = align(target, aux)
    result = oracle_recovery(aligned, n_b=args.budget, beta=args.beta, method=args.method,
                             alpha=args.alpha, seed=args.seed)
    config = {
        "command": "gwas",
        "target": args.target,
        "aux": args.aux,
        "key_col": args.key_col,
        "p_col": args.p_col,
        "budget": args.budget,
        "beta": args.beta,
        "alpha": args.alpha,
        "method": args.method,
        "seed": args.seed,
    }
    summary = (
        f"# n_queries = {result.n_queries}\n"
        f"# oracle_size = {result.oracle.size}\n"
        f"# recovered_size = {result.recovered.size}\n"
        f"# efficiency = {result.efficiency!r}\n"
    )
    body = csv_text("key,active_p,queried\n",
                    [aligned.keys, result.run.values, result.run.queried])
    atomic_write_text(args.out, config_header(config) + summary + body)
    return _EXIT_OK


@contextmanager
def _located(*files):
    """Turn a DomainError that gives the position of a bad value into a
    DataError naming its file and line.  ``files`` holds (path, line
    numbers) pairs in the order their values were passed."""
    try:
        yield
    except DomainError as exc:
        if exc.index is None:
            raise
        path, line = [(path, line) for path, lines in files for line in lines][exc.index]
        raise DataError(f"{path}: line {line}: {exc}") from exc


def _cmd_conformal(args) -> int:
    cal, cal_lines = read_score_rows(args.cal)
    test, test_lines = read_score_rows(args.test)
    with _located((args.cal, cal_lines), (args.test, test_lines)):
        p = conformal_p(cal, test)
    config = {
        "command": "conformal",
        "cal": args.cal,
        "test": args.test,
        "n_calibration": cal.size,
        "n_test": test.size,
    }
    body = csv_text("index,p_value\n", [np.arange(p.size), p])
    atomic_write_text(args.out, config_header(config) + body)
    return _EXIT_OK


def _cmd_mt(args) -> int:
    values, lines = read_score_rows(args.input)
    procedure = {"bh": bh, "by": by, "ebh": ebh}[args.procedure]
    with _located((args.input, lines)):
        result = procedure(values, args.alpha)
    config = {
        "command": "mt",
        "procedure": args.procedure,
        "alpha": args.alpha,
        "input": args.input,
        "k_hat": result.k_hat,
    }
    text = config_header(config) + "".join(f"{i}\n" for i in result.rejected)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "gwas": _cmd_gwas,
    "conformal": _cmd_conformal,
    "mt": _cmd_mt,
}


def _show_warning(message, *args, **kwargs) -> None:
    print(f"{PROG}: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    # each warning prints as one line; the caller's warning state is restored
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
        except _UsageError as exc:
            print(f"{PROG}: error: {exc}", file=sys.stderr)
            return _EXIT_USAGE
        except SystemExit as exc:  # --version / --help
            return int(exc.code or 0)
        except (ActiveTestError, OSError) as exc:
            print(f"{PROG}: error: {exc}", file=sys.stderr)
            return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
