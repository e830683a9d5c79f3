"""Command line interface.

Subcommands: simulate, run, gwas, conformal, mt.  Every run echoes its options
and derived values into the output header as '#'-prefixed comment lines,
writes outputs atomically (temp file + rename, never a partial file), and
exits 0 on success, 1 on usage errors, 2 on data or domain errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import __version__ as VERSION
from .core import MODES, StatMode, check_beta
from .engine import (METHOD_NAMES, HypothesisSet, MethodSpec, check_method_budget, csv_text,
                     run_method)
from .errors import ActiveTestError, DataError, DomainError
from .allocation import DEFAULT_FAMILY, DIRECTIONS
from .pipeline import (
    align,
    conformal_p,
    oracle_recovery,
    read_columns,
    read_score_rows,
    read_summary_table,
)
from .procedures import bh, by, check_alpha, ebh
from .rng import DEFAULT_SEED
from .simulate import (CELL_MODES, DESK_BUDGET, DESK_N, DESK_REPS, DGP_KINDS, DGP_PARAMETERS,
                       DgpSpec, run_experiment)

PROG = "activetest"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DATA = 2

_OUTPUT_PATHS = ("out", "agg_out")  # options the header leaves out


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# characters encoded per write: bounds the bytes alive beside the text
_WRITE_SLICE = 1 << 16


def atomic_write_text(path: str, text: str) -> None:
    """Write the rendered text, then rename into place; an error names ``path``.
    A symlink is written through to its target, as ``open(path, "w")`` would.
    The text goes out ``_WRITE_SLICE`` characters at a time, so no more than
    one slice is encoded at once; a slice never splits a character."""
    tmp = None
    try:
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-activetest-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start:start + _WRITE_SLICE])
        try:  # the mode open(path, "w") would leave: the file's own, or 0o666 less the umask
            mode = os.stat(target).st_mode & 0o7777
        except FileNotFoundError:
            os.umask(umask := os.umask(0o077))  # read by setting it; private in the meantime
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def config_header(args: argparse.Namespace, **resolved) -> str:
    """Each parsed option but the output paths, in parse order, then the
    derived values; a ``resolved`` value replaces the option of its name."""
    config = {key: value for key, value in vars(args).items() if key not in _OUTPUT_PATHS}
    config.update(resolved)
    return "".join([f"# {PROG} {VERSION}\n"] + [f"# {k} = {v}\n" for k, v in config.items()])


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
    sim.add_argument("--dgp", choices=DGP_KINDS, required=True)
    sim.add_argument("--mode", choices=CELL_MODES, default="e")
    sim.add_argument("--n", type=int, default=DESK_N)
    sim.add_argument("--pi", type=float, default=0.1)
    sim.add_argument("--sigma", type=float, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--budget", type=float, default=float(DESK_BUDGET))
    sim.add_argument("--beta", type=float, default=0.5)
    sim.add_argument("--alpha", type=float, default=0.1)
    sim.add_argument("--reps", type=int, default=DESK_REPS)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--methods", default=",".join(METHOD_NAMES),
                     help=f"comma-separated subset of {','.join(METHOD_NAMES)}")
    sim.add_argument("--out", required=True, help="per-replication metrics CSV")
    sim.add_argument("--agg-out", default=None,
                     help="aggregate metrics CSV (default: <out stem>_agg.csv)")

    run = sub.add_parser("run", help="run one method on a CSV of hypotheses")
    run.add_argument("--input", required=True,
                     help="table with columns id,aux,exact (comma or tab)")
    run.add_argument("--mode", choices=[m.kind.replace("_", "-") for m in MODES], required=True)
    run.add_argument("--method", choices=METHOD_NAMES, default="active")
    run.add_argument("--budget", type=float, default=None)
    run.add_argument("--beta", type=float, default=0.5)
    run.add_argument("--utility", choices=list(DIRECTIONS), default=None,
                     help=f"utility family of the active method; default "
                          f"{DEFAULT_FAMILY['direct']} for --mode e, "
                          f"{DEFAULT_FAMILY['inverse']} for the p modes")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", required=True)

    gwas = sub.add_parser("gwas", help="budgeted recovery on paired summary tables")
    gwas.add_argument("--target", required=True, help="expensive summary statistics file")
    gwas.add_argument("--aux", required=True, help="cheap auxiliary summary statistics file")
    gwas.add_argument("--key-col", default="rsid")
    gwas.add_argument("--p-col", default="pval")
    gwas.add_argument("--budget", type=float, default=None)
    gwas.add_argument("--beta", type=float, default=0.5)
    gwas.add_argument("--alpha", type=float, default=0.1)
    gwas.add_argument("--method", choices=METHOD_NAMES, default="active")
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
    for kind, flag, _interval in DGP_PARAMETERS:
        if kind == args.dgp and getattr(args, flag) is None:
            raise _UsageError(f"--{flag} is required for --dgp {args.dgp}")
    agg_out = args.agg_out
    if agg_out is None:
        stem, ext = os.path.splitext(args.out)
        agg_out = f"{stem}_agg{ext or '.csv'}"
    # the aggregate rows would replace the per-replication rows
    if os.path.realpath(agg_out) == os.path.realpath(args.out):
        raise _UsageError(f"--agg-out and --out name the same file: {agg_out}")
    spec = DgpSpec(kind=args.dgp, n=args.n, pi=args.pi, alpha=args.alpha,
                   sigma=args.sigma, rho=args.rho)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    result = run_experiment(spec, methods, n_b=args.budget, beta=args.beta, reps=args.reps,
                            seed=args.seed, mode=args.mode, threads=args.threads)
    header = config_header(args, methods=",".join(methods), tau_sq=spec.tau_sq,
                           **{"lambda": spec.lam})
    atomic_write_text(args.out, result.per_rep_csv(header))
    atomic_write_text(agg_out, result.aggregate_csv(header))
    return _EXIT_OK


def _budget_rule(args):
    """Check ``--budget`` before any input is read; return the run's budget as a function
    of its row count n.  active, active-xu and random need one; xu and all spend none and
    default to n.  The run checks a given budget against its table."""
    if args.budget is None:
        if args.method in ("active", "active-xu", "random"):
            raise _UsageError(f"--budget is required for method {args.method!r}")
        return lambda n: float(n)
    check_method_budget(args.method, args.budget)
    return lambda n: args.budget


def _cmd_run(args) -> int:
    budget = _budget_rule(args)
    mode = StatMode(args.mode.replace("-", "_"))
    fitting = "direct" if mode.is_e else "inverse"
    utility = args.utility or DEFAULT_FAMILY[fitting]
    if args.method == "active" and DIRECTIONS[utility] != fitting:
        print(f"{PROG}: warning: utility {utility!r} is {DIRECTIONS[utility]}, but "
              f"--mode {args.mode} wants {'an' if fitting == 'inverse' else 'a'} {fitting} "
              "family; the budget goes to the least promising hypotheses", file=sys.stderr)
    method = MethodSpec(args.method, beta=args.beta)
    table = _read_run_input(args.input)
    out = run_method(table, method, mode=mode, n_b=budget(len(table)), seed=args.seed,
                     utility=utility)
    header = config_header(args, utility=utility, n_queries=out.n_queries)
    atomic_write_text(args.out, out.to_csv(header))
    return _EXIT_OK


def _read_run_input(path: str) -> HypothesisSet:
    ids, (aux, exact) = read_columns(path, "id", ("aux", "exact"))
    return HypothesisSet(aux=aux, exact=exact, ids=ids)


def _cmd_gwas(args) -> int:
    budget = _budget_rule(args)
    check_beta(args.beta)
    check_alpha(args.alpha)
    target = read_summary_table(args.target, args.key_col, args.p_col)
    aux = read_summary_table(args.aux, args.key_col, args.p_col)
    aligned = align(target, aux)
    result = oracle_recovery(aligned, n_b=budget(len(aligned)), beta=args.beta,
                             method=args.method, alpha=args.alpha, seed=args.seed)
    header = config_header(args, n_queries=result.n_queries, oracle_size=result.oracle.size,
                           recovered_size=result.recovered.size,
                           efficiency=result.efficiency)
    atomic_write_text(args.out, csv_text(header + "key,active_p,queried\n",
                                         [aligned.keys, result.run.values, result.run.queried]))
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
        raise DataError(f"{path}: line {line}: {exc.rule}") from exc


def _cmd_conformal(args) -> int:
    cal, cal_lines = read_score_rows(args.cal)
    test, test_lines = read_score_rows(args.test)
    with _located((args.cal, cal_lines), (args.test, test_lines)):
        p = conformal_p(cal, test)
    header = config_header(args, n_calibration=cal.size, n_test=test.size)
    atomic_write_text(args.out, csv_text(header + "index,p_value\n", [np.arange(p.size), p]))
    return _EXIT_OK


def _cmd_mt(args) -> int:
    check_alpha(args.alpha)
    values, lines = read_score_rows(args.input)
    procedure = {"bh": bh, "by": by, "ebh": ebh}[args.procedure]
    with _located((args.input, lines)):
        result = procedure(values, args.alpha)
    text = csv_text(config_header(args, k_hat=result.k_hat), [result.rejected])
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


def main(argv=None) -> int:
    parser = build_parser()
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
