"""Synthetic data generators and the replication harness.

Three data-generating processes share one signal model: a fraction pi of
hypotheses carries a half-normal mean mu ~ |N(0, tau^2)| with tau^2 = 2 log n,
the primary observation is Z ~ N(mu, 1), and the exact statistics are the
likelihood-ratio e-value E = exp(lam * Z - lam^2 / 2) with lam =
sqrt(log(n / alpha)) and the one-sided p-value P = 1 - Phi(Z).

They differ in the auxiliary channel:

    signal       counts/quantiles of the mean itself: E_aux ~ Poisson(1 + mu),
                 P_aux ~ Beta(1, 1 + mu); auxiliaries are independent of Z
                 given mu, so the independent p construction applies.
    noisy        a corrupted copy Y = Z + N(0, sigma^2) pushed through the
                 same statistic maps; dependence is arbitrary, so the general
                 p construction applies.
    correlated   (Y, Z) bivariate normal with unit variances, correlation rho
                 and means (rho * mu, mu); general p construction.

All randomness flows through the counter-based stream keyed by (seed, rep),
so replications are reproducible independently of scheduling.  scipy is
imported inside the functions that call it, so only simulate runs load it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import DEFAULT_FAMILY
from .core import (E_VALUES, P_GENERAL, P_INDEPENDENT, StatMode, _read_only, check_choice,
                   check_real, check_whole)
from .engine import HypothesisSet, MethodSpec, check_method_budget, csv_text, run_method
from .errors import DomainError
from .procedures import by, check_alpha, ebh
from .rng import (
    BETA_DRAW,
    DEFAULT_SEED,
    MIXTURE_DRAW,
    POISSON_DRAW,
    PRIMARY_NOISE,
    PROXY_NOISE,
    SIGNAL_DRAW,
    uniforms,
)

__all__ = [
    "DgpSpec",
    "SignalDraw",
    "AggregateMetrics",
    "ExperimentResult",
    "gen_signal",
    "make_statistics",
    "run_experiment",
]

DGP_KINDS = ("signal", "noisy", "correlated")
CELL_MODES = ("e", "p")  # a desk cell scores e-values or p-values
# (kind, the parameter only that kind takes, the open interval it must lie in)
DGP_PARAMETERS = (("noisy", "sigma", (0, math.inf)), ("correlated", "rho", (-1, 1)))

DESK_N = 2000
DESK_BUDGET = 100
DESK_REPS = 100

# draws per DGP stage in one run_experiment pass: a block holds
# max(1, _BLOCK_ELEMENTS // n) reps, so one rep at large n
_BLOCK_ELEMENTS = 8000


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one data-generating process.

    Exactly the parameters of the declared kind (``DGP_PARAMETERS``) may be
    set.  ``tau_sq`` and ``lam`` are derived from n and alpha.
    """

    kind: str
    n: int
    pi: float
    alpha: float = 0.1
    sigma: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        check_choice("kind", self.kind, DGP_KINDS)
        object.__setattr__(self, "n", check_whole("n", self.n, 2))
        # each check refuses a value that is not a real number, None included
        check_real("pi", self.pi, 0, 1, closed=True)
        check_alpha(self.alpha)
        for kind, name, (low, high) in DGP_PARAMETERS:
            if kind == self.kind:
                check_real(name, getattr(self, name), low, high)
            elif getattr(self, name) is not None:
                raise DomainError(f"{name} does not apply to the {self.kind!r} DGP")

    @property
    def tau_sq(self) -> float:
        return 2.0 * math.log(self.n)

    @property
    def lam(self) -> float:
        return math.sqrt(math.log(self.n / self.alpha))


# one draw call per stage: a draw is a pure function of its words, so a
# column of purposes against the index row gives each purpose's own stream
_SIGNAL_PURPOSES = np.array([[MIXTURE_DRAW], [SIGNAL_DRAW], [PRIMARY_NOISE]], dtype=np.uint64)


@dataclass(frozen=True)
class SignalDraw:
    mu: np.ndarray
    z: np.ndarray
    truth: np.ndarray  # True = non-null


def _rep_word(rep, trailing: int):
    # a vector of reps as a column against ``trailing`` further axes
    return rep if np.ndim(rep) == 0 else np.asarray(rep).reshape(-1, *(1,) * trailing)


def gen_signal(spec: DgpSpec, rep, seed: int) -> SignalDraw:
    """Draw the latent means, primary observations, and truth labels.

    ``rep`` may also be a vector of reps: each array then gains a leading
    axis, and its row b holds the draws of rep[b] alone, bit for bit.
    """
    from scipy.special import ndtri

    draws = uniforms(seed, _rep_word(rep, 2), np.arange(spec.n, dtype=np.uint64),
                     _SIGNAL_PURPOSES)
    truth = draws[..., 0, :] < spec.pi
    magnitude, noise = np.moveaxis(ndtri(draws[..., 1:, :]), -2, 0)
    mu = np.where(truth, np.abs(magnitude) * math.sqrt(spec.tau_sq), 0.0)
    z = mu + noise
    return SignalDraw(mu=mu, z=z, truth=truth)


# relative distance of u from a CDF step inside which _poisson_inverse
# takes scipy's own quantile formula: that formula starts from pdtr's
# numerical inverse, and right next to a step it can land on the other side
_PPF_MARGIN = 1e-9


def _scipy_poisson_ppf(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    # what scipy's poisson.ppf computes for u in (0, 1]
    from scipy.special import pdtr, pdtrik

    k = np.ceil(pdtrik(u, mean))
    below = np.maximum(k - 1, 0)
    return np.where(u == 1.0, np.inf, np.where(pdtr(below, mean) >= u, below, k))


def _poisson_inverse(u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Poisson(mean) quantiles at u in (0, 1], equal bit for bit to scipy's
    ``poisson.ppf``; one uniform per draw keeps the stream fixed-consumption.
    ``u`` and ``mean`` share one shape, of any number of axes.

    A pmf recurrence runs each row up to the first k whose running CDF sum
    S_k reaches u.  The row is confirmed when S_(k-1) < u and S_k >= u
    each hold with a relative margin to spare (S_(-1) = 0).  The sums
    start from exp(-mean), within one ulp, and each step rounds twice in
    the pmf and once in the sum, so S_k is within (3k + 4) 2^-53 of the
    CDF, relatively.  The recurrence runs only while exp(-mean) is a
    normal double (mean below 708.4), so k stays near 1000 at most and the
    error below 4e-13, far inside the margin.  A row it cannot confirm --
    u close to a CDF step, a sum that stopped growing short of u, or
    exp(-mean) below the smallest normal double -- takes scipy's own
    formula.  Every step grows each running sum or drops the row, so the
    loop ends for every finite mean.
    """
    u = np.asarray(u, dtype=np.float64)
    shape = u.shape
    u, mean = u.ravel(), np.asarray(mean, dtype=np.float64).ravel()
    pmf = np.exp(-mean)
    k = np.zeros(u.shape)
    below = np.zeros(u.shape)
    at = pmf.copy()
    rows = np.nonzero(pmf < u)[0]
    m, target, p, cdf = mean[rows], u[rows], pmf[rows], pmf[rows]
    step = 0
    while rows.size:
        step += 1
        p = p * m / step
        grown = cdf + p
        going = (grown < target) & (grown > cdf)
        stop = ~going
        done = rows[stop]
        k[done], below[done], at[done] = step, cdf[stop], grown[stop]
        rows, m, target, p, cdf = rows[going], m[going], target[going], p[going], grown[going]
    unsure = np.nonzero((below >= u * (1.0 - _PPF_MARGIN)) | (at < u * (1.0 + _PPF_MARGIN))
                        | (pmf < np.finfo(np.float64).tiny))[0]
    if unsure.size:
        k[unsure] = _scipy_poisson_ppf(u[unsure], mean[unsure])
    return k.reshape(shape)


def make_statistics(spec: DgpSpec, signal: SignalDraw, rep, seed: int,
                    is_e: bool) -> tuple[np.ndarray, np.ndarray]:
    """(aux, exact) statistics of one replication: (E_aux, E) when ``is_e``,
    else (P_aux, P).  Each purpose's stream is a pure function of its words,
    so the other pair's draws are not made.  Takes a vector of reps as
    ``gen_signal`` does, with that call's ``signal``."""
    from scipy.special import ndtr, ndtri

    lam = spec.lam
    statistic = (lambda x: np.exp(lam * x - 0.5 * lam * lam)) if is_e else (lambda x: ndtr(-x))
    rep = _rep_word(rep, 1)
    idx = np.arange(spec.n, dtype=np.uint64)
    if spec.kind == "signal":
        shape = 1.0 + signal.mu
        if is_e:
            aux = _poisson_inverse(uniforms(seed, rep, idx, POISSON_DRAW), shape)
        else:
            aux = 1.0 - uniforms(seed, rep, idx, BETA_DRAW) ** (1.0 / shape)
    else:
        noise = ndtri(uniforms(seed, rep, idx, PROXY_NOISE))
        if spec.kind == "noisy":
            y = signal.z + spec.sigma * noise
        else:
            y = spec.rho * signal.z + math.sqrt(1.0 - spec.rho**2) * noise
        aux = statistic(y)
    return aux, statistic(signal.z)


def _cell_defaults(kind: str, mode: str) -> tuple[str, StatMode]:
    """Utility family and construction of a desk cell in mode 'e' or 'p'.

    e-type: identity for signal, the direct default for the heavy-tailed
    noisy and correlated auxiliaries.  p-type: the inverse default, with the
    independent construction for signal (auxiliaries independent of Z given
    mu) and the general one otherwise."""
    if check_choice("mode", mode, CELL_MODES) == "e":
        return ("identity" if kind == "signal" else DEFAULT_FAMILY["direct"]), E_VALUES
    return DEFAULT_FAMILY["inverse"], P_INDEPENDENT if kind == "signal" else P_GENERAL


# the per-rep counts _run_block records, in the order of its array's first axis
_COUNTS = ("n_rejected", "n_true_discoveries", "queries", "n_signals", "expected_queries")


@dataclass(frozen=True)
class AggregateMetrics:
    method: str
    fdr: float
    fdr_se: float
    tpr: float
    tpr_se: float
    queries_mean: float
    efficiency_mean: float
    efficiency_se: float


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num / den, and 0.0 where den is 0
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


class ExperimentResult:
    """Per-rep metrics of each method, with aggregation and CSV serialization.

    Each metric is a (methods, reps) array.  ``n_rejected``,
    ``n_true_discoveries``, ``queries`` and ``n_signals`` are counts.
    ``expected_queries`` is the allocation-level sum of query probabilities,
    around which the realized ``queries`` fluctuate, and nan for a method
    without an allocation.  ``fdp``, ``tpp`` and ``efficiency`` are derived
    from the counts, and are 0.0 where their denominator is 0.  ``counts``
    is a (counts, methods, reps) array in the order of ``_COUNTS``.
    """

    def __init__(self, methods: Sequence[str], counts: np.ndarray):
        self.methods = list(methods)
        rejected, true, queries, signals = counts[:4].astype(np.int64)
        self._columns = dict(zip(_COUNTS, (rejected, true, queries, signals, counts[4])),
                             fdp=_ratio(rejected - true, rejected), tpp=_ratio(true, signals),
                             efficiency=_ratio(true, queries))

    def column(self, method: str, name: str) -> np.ndarray:
        """The values of metric ``name`` for ``method``, one per rep in rep order;
        a method or a metric the result does not hold is refused by ``check_choice``."""
        row = self.methods.index(check_choice("method", method, tuple(self.methods)))
        return self._columns[check_choice("metric", name, tuple(self._columns))][row]

    def _aggregate_columns(self) -> list[np.ndarray]:
        fdp, tpp, eff = (self._columns[name] for name in ("fdp", "tpp", "efficiency"))
        k = fdp.shape[1]
        se = lambda a: np.std(a, axis=1, ddof=1) / np.sqrt(k) if k > 1 else np.zeros(len(a))
        queries = self._columns["queries"].astype(np.float64)
        return [fdp.mean(axis=1), se(fdp), tpp.mean(axis=1), se(tpp), queries.mean(axis=1),
                eff.mean(axis=1), se(eff)]

    def aggregate(self) -> list[AggregateMetrics]:
        return [AggregateMetrics(method, *map(float, values))
                for method, values in zip(self.methods, zip(*self._aggregate_columns()))]

    def per_rep_csv(self, lead: str = "") -> str:
        """A row per (rep, method), rep by rep and the methods in order within
        each; ``lead``, such as a '#' header, is the text before the column line."""
        reps = self._columns["fdp"].shape[1]
        return csv_text(lead + "method,rep,fdp,tpp,queries,efficiency\n",
                        [self.methods * reps, np.repeat(np.arange(reps), len(self.methods)),
                         *(self._columns[name].T.ravel()
                           for name in ("fdp", "tpp", "queries", "efficiency"))])

    def aggregate_csv(self, lead: str = "") -> str:
        """A row of ``aggregate`` per method, after ``lead`` and the column line."""
        return csv_text(
            lead + "method,fdr,fdr_se,tpr,tpr_se,queries_mean,efficiency_mean,efficiency_se\n",
            [self.methods, *self._aggregate_columns()])


def _run_block(spec: DgpSpec, methods: list[MethodSpec], n_b: float, mode: StatMode,
               utility: str, seed: int, reps: range) -> np.ndarray:
    """Score every method on each rep of ``reps``, one rep at a time, after
    drawing the DGP of all of them in one pass per stage.  Returns the
    ``_COUNTS`` of each (method, rep) as a (counts, methods, reps) array."""
    block = np.arange(reps.start, reps.stop)
    signal = gen_signal(spec, block, seed)
    # read-only, so each rep's set holds its rows without a copy
    aux, exact = map(_read_only, make_statistics(spec, signal, block, seed, mode.is_e))
    counts = np.full((len(_COUNTS), len(methods), len(reps)), np.nan)
    counts[3] = np.count_nonzero(signal.truth, axis=-1)
    procedure = ebh if mode.is_e else by
    for b, rep in enumerate(reps):
        # one set per rep: its memo draws the branch coins once for active,
        # active-xu and xu
        hs = HypothesisSet(aux=aux[b], exact=exact[b])
        for m, method in enumerate(methods):
            out = run_method(hs, method, mode=mode, n_b=n_b, seed=seed, rep=rep,
                             utility=utility)
            rejected = procedure(out.values, spec.alpha).rejected
            counts[:3, m, b] = (rejected.size, np.count_nonzero(signal.truth[b, rejected]),
                                out.n_queries)
            if out.allocation is not None:
                counts[4, m, b] = out.allocation.expected_queries
    return counts


def run_experiment(
    spec: DgpSpec,
    methods,
    n_b: float,
    beta: float = 0.5,
    reps: int = DESK_REPS,
    seed: int = DEFAULT_SEED,
    *,
    mode: str = "e",
    threads: int = 1,
) -> ExperimentResult:
    """Replicate the DGP and score every method on each replication.

    ``methods`` are distinct method names, each run with ``beta`` and the
    utility family and construction of the cell (``_cell_defaults``).
    Data is generated once per replication and shared across methods, so
    comparisons are paired.  e-mode feeds the outputs to the e-value step-up
    procedure, p-mode to the BY procedure, both at spec.alpha.  The DGP is
    drawn a block of reps per call; the methods run one rep at a time.
    ``threads`` maps the blocks over at most that many workers, and no more
    than there are blocks or CPUs, without changing any output bit.
    """
    utility, stat_mode = _cell_defaults(spec.kind, mode)
    reps, threads = check_whole("reps", reps, 1), check_whole("threads", threads, 1)
    methods_resolved = [MethodSpec(str(m), beta=beta) for m in methods]
    if not methods_resolved:
        raise DomainError("at least one method is required")
    variants = [m.variant for m in methods_resolved]
    if len(set(variants)) < len(variants):
        raise DomainError(f"methods must be distinct, got {','.join(variants)}")
    # every method's budget, before any rep is drawn
    for variant in variants:
        check_method_budget(variant, n_b, spec.n)

    def one(block: range) -> np.ndarray:
        return _run_block(spec, methods_resolved, n_b, stat_mode, utility, seed, block)

    size = max(1, _BLOCK_ELEMENTS // spec.n)
    blocks = [range(start, min(start + size, reps)) for start in range(0, reps, size)]
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        per_block = list(map(one, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(one, blocks))
    return ExperimentResult(variants, np.concatenate(per_block, axis=-1))
