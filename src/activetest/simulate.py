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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import StatMode
from .engine import HypothesisSet, MethodSpec, run_method
from .errors import DomainError
from .procedures import by, ebh
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
    "StatisticsDraw",
    "RunMetrics",
    "AggregateMetrics",
    "ExperimentResult",
    "gen_signal",
    "make_statistics",
    "utility_defaults",
    "default_construction",
    "run_experiment",
    "DESK_N",
    "DESK_BUDGET",
    "DESK_REPS",
]

DGP_KINDS = ("signal", "noisy", "correlated")

DESK_N = 2000
DESK_BUDGET = 100
DESK_REPS = 100


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one data-generating process.

    Exactly the parameters of the declared kind may be set: ``sigma`` only
    for ``noisy``, ``rho`` only for ``correlated``.  ``tau_sq`` and ``lam``
    are derived from n and alpha.
    """

    kind: str
    n: int
    pi: float
    alpha: float = 0.1
    sigma: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DGP_KINDS:
            raise DomainError(f"unknown DGP kind {self.kind!r}; expected one of {DGP_KINDS}")
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"n must be an integer >= 2, got {self.n!r}")
        if not 0.0 <= self.pi <= 1.0:
            raise DomainError(f"pi must lie in [0, 1], got {self.pi!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.kind == "noisy":
            if self.sigma is None or not 0.0 < self.sigma < math.inf:
                raise DomainError(f"the noisy DGP requires a finite sigma > 0, got {self.sigma!r}")
        elif self.sigma is not None:
            raise DomainError(f"sigma does not apply to the {self.kind!r} DGP")
        if self.kind == "correlated":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise DomainError("the correlated DGP requires rho in (-1, 1)")
        elif self.rho is not None:
            raise DomainError(f"rho does not apply to the {self.kind!r} DGP")

    @property
    def tau_sq(self) -> float:
        return 2.0 * math.log(self.n)

    @property
    def lam(self) -> float:
        return math.sqrt(math.log(self.n / self.alpha))


@dataclass(frozen=True)
class SignalDraw:
    mu: np.ndarray
    z: np.ndarray
    truth: np.ndarray  # True = non-null


@dataclass(frozen=True)
class StatisticsDraw:
    e: np.ndarray
    p: np.ndarray
    e_aux: np.ndarray
    p_aux: np.ndarray


def gen_signal(spec: DgpSpec, rep: int, seed: int) -> SignalDraw:
    """Draw the latent means, primary observations, and truth labels."""
    from scipy.special import ndtri

    idx = np.arange(spec.n, dtype=np.uint64)
    truth = uniforms(seed, rep, idx, MIXTURE_DRAW) < spec.pi
    magnitude = np.abs(ndtri(uniforms(seed, rep, idx, SIGNAL_DRAW))) * math.sqrt(spec.tau_sq)
    mu = np.where(truth, magnitude, 0.0)
    z = mu + ndtri(uniforms(seed, rep, idx, PRIMARY_NOISE))
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

    A pmf recurrence runs each row up to the first k whose summed CDF
    reaches u, and ``pdtr`` confirms pdtr(k - 1) < u <= pdtr(k) (the CDF
    below 0 is 0).  A row it cannot confirm with a relative margin to spare
    -- u close to a CDF step, or a recurrence that stalled short of u
    because exp(-mean) underflows or the sum stops growing -- takes scipy's
    own formula.  Every step grows each running sum or drops the row, so
    the loop ends for every finite mean.
    """
    from scipy.special import pdtr

    u = np.asarray(u, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    pmf = np.exp(-mean)
    k = np.zeros(u.shape)
    rows = np.nonzero(pmf < u)[0]
    m, target, p, cdf = mean[rows], u[rows], pmf[rows], pmf[rows]
    step = 0
    while rows.size:
        step += 1
        k[rows] = step
        p = p * m / step
        grown = cdf + p
        going = (grown < target) & (grown > cdf)
        rows, m, target, p, cdf = rows[going], m[going], target[going], p[going], grown[going]
    below = np.where(k > 0, pdtr(k - 1, mean), 0.0)
    confirmed = (below < u * (1.0 - _PPF_MARGIN)) & (pdtr(k, mean) >= u * (1.0 + _PPF_MARGIN))
    unsure = np.nonzero(~confirmed)[0]
    if unsure.size:
        k[unsure] = _scipy_poisson_ppf(u[unsure], mean[unsure])
    return k


def make_statistics(spec: DgpSpec, signal: SignalDraw, rep: int, seed: int) -> StatisticsDraw:
    """Compute (E, P, E_aux, P_aux) for one replication."""
    from scipy.special import ndtr, ndtri

    lam = spec.lam
    z = signal.z
    e = np.exp(lam * z - 0.5 * lam * lam)
    p = ndtr(-z)
    idx = np.arange(spec.n, dtype=np.uint64)
    if spec.kind == "signal":
        shape = 1.0 + signal.mu
        e_aux = _poisson_inverse(uniforms(seed, rep, idx, POISSON_DRAW), shape)
        p_aux = 1.0 - uniforms(seed, rep, idx, BETA_DRAW) ** (1.0 / shape)
    else:
        noise = ndtri(uniforms(seed, rep, idx, PROXY_NOISE))
        if spec.kind == "noisy":
            y = z + spec.sigma * noise
        else:
            y = spec.rho * z + math.sqrt(1.0 - spec.rho**2) * noise
        e_aux = np.exp(lam * y - 0.5 * lam * lam)
        p_aux = ndtr(-y)
    return StatisticsDraw(e=e, p=p, e_aux=e_aux, p_aux=p_aux)


def utility_defaults(kind: str, mode: str) -> str:
    """Name of the default utility family per DGP kind and statistic mode.

    signal: identity on e-type auxiliaries, log-inverse on p-type ones.
    noisy/correlated: log1p on e-type (range compression keeps the budget
    fully spent under heavy-tailed auxiliaries), log-inverse on p-type.
    """
    if kind not in DGP_KINDS:
        raise DomainError(f"unknown DGP kind {kind!r}")
    if mode not in ("e", "p"):
        raise DomainError(f"mode must be 'e' or 'p', got {mode!r}")
    if mode == "e":
        return "identity" if kind == "signal" else "log1p"
    return "log_inverse"


def default_construction(kind: str, mode: str) -> StatMode:
    """Default statistic mode: independent p construction for the signal DGP
    (auxiliaries independent of Z given mu), general construction otherwise."""
    if kind not in DGP_KINDS:
        raise DomainError(f"unknown DGP kind {kind!r}")
    if mode == "e":
        return StatMode("e")
    if mode != "p":
        raise DomainError(f"mode must be 'e' or 'p', got {mode!r}")
    return StatMode("p_independent") if kind == "signal" else StatMode("p_general")


@dataclass(frozen=True)
class RunMetrics:
    """Per-replication outcome of one method.

    ``expected_queries`` is the allocation-level sum of query probabilities
    (None for methods without an allocation); the realized ``queries`` count
    fluctuates around it.
    """

    method: str
    rep: int
    fdp: float
    tpp: float
    queries: int
    efficiency: float
    n_rejected: int
    n_true_discoveries: int
    expected_queries: Optional[float] = None


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


def _metrics(method: str, rep: int, rejected: np.ndarray, truth: np.ndarray,
             n_queries: int, expected_queries: Optional[float]) -> RunMetrics:
    n_rejected = int(rejected.size)
    n_true = int(np.count_nonzero(truth[rejected])) if n_rejected else 0
    fdp = (n_rejected - n_true) / max(n_rejected, 1)
    n_signals = int(np.count_nonzero(truth))
    tpp = n_true / n_signals if n_signals else 0.0
    efficiency = n_true / n_queries if n_queries else 0.0
    return RunMetrics(
        method=method,
        rep=rep,
        fdp=fdp,
        tpp=tpp,
        queries=int(n_queries),
        efficiency=efficiency,
        n_rejected=n_rejected,
        n_true_discoveries=n_true,
        expected_queries=expected_queries,
    )


class ExperimentResult:
    """Per-rep metric rows plus aggregation and CSV serialization."""

    def __init__(self, rows: Sequence[RunMetrics], methods: Sequence[str]):
        self.rows = list(rows)
        self.methods = list(methods)

    def for_method(self, method: str) -> list[RunMetrics]:
        return [r for r in self.rows if r.method == method]

    def aggregate(self) -> list[AggregateMetrics]:
        out = []
        for method in self.methods:
            rows = self.for_method(method)
            fdp = np.array([r.fdp for r in rows])
            tpp = np.array([r.tpp for r in rows])
            eff = np.array([r.efficiency for r in rows])
            queries = np.array([r.queries for r in rows], dtype=np.float64)
            k = len(rows)
            sd = lambda a: float(np.std(a, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
            out.append(
                AggregateMetrics(
                    method=method,
                    fdr=float(np.mean(fdp)),
                    fdr_se=sd(fdp),
                    tpr=float(np.mean(tpp)),
                    tpr_se=sd(tpp),
                    queries_mean=float(np.mean(queries)),
                    efficiency_mean=float(np.mean(eff)),
                    efficiency_se=sd(eff),
                )
            )
        return out

    def per_rep_csv(self) -> str:
        return "method,rep,fdp,tpp,queries,efficiency\n" + "".join(
            f"{r.method},{r.rep},{r.fdp!r},{r.tpp!r},{r.queries},{r.efficiency!r}\n"
            for r in self.rows)

    def aggregate_csv(self) -> str:
        return ("method,fdr,fdr_se,tpr,tpr_se,queries_mean,efficiency_mean,efficiency_se\n"
                + "".join(f"{a.method},{a.fdr!r},{a.fdr_se!r},{a.tpr!r},{a.tpr_se!r},"
                          f"{a.queries_mean!r},{a.efficiency_mean!r},{a.efficiency_se!r}\n"
                          for a in self.aggregate()))


def _run_one_rep(spec: DgpSpec, methods: list[MethodSpec], n_b: float, mode: str,
                 stat_mode: StatMode, utility: str, seed: int, rep: int) -> list[RunMetrics]:
    signal = gen_signal(spec, rep, seed)
    draw = make_statistics(spec, signal, rep, seed)
    if mode == "e":
        aux, exact = draw.e_aux, draw.e
    else:
        aux, exact = draw.p_aux, draw.p
    # one set per rep: its memo draws the branch coins once for active,
    # active-xu and xu
    hs = HypothesisSet(aux=aux, exact=exact)
    rows = []
    for method in methods:
        out = run_method(hs, method, mode=stat_mode, n_b=n_b, seed=seed, rep=rep,
                         utility=utility)
        if mode == "e":
            rejections = ebh(out.values, spec.alpha)
        else:
            rejections = by(out.values, spec.alpha)
        expected = out.allocation.expected_queries if out.allocation is not None else None
        rows.append(_metrics(method.variant, rep, rejections.rejected, signal.truth,
                             out.n_queries, expected))
    return rows


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

    ``methods`` are method names, each run with ``beta``, the utility of
    ``utility_defaults`` and the construction of ``default_construction``.
    Data is generated once per replication and shared across methods, so
    comparisons are paired.  e-mode feeds the outputs to the e-value step-up
    procedure, p-mode to the BY procedure, both at spec.alpha.  ``threads``
    parallelizes over replications without changing any output bit.
    """
    if spec.pi == 0.0:
        raise DomainError("run_experiment requires pi > 0 (no signals to recover)")
    utility = utility_defaults(spec.kind, mode)  # refuses a mode other than e or p
    stat_mode = default_construction(spec.kind, mode)
    if reps < 1:
        raise DomainError("reps must be >= 1")
    if threads < 1:
        raise DomainError("threads must be >= 1")
    methods_resolved = [MethodSpec(str(m), beta=beta) for m in methods]
    if not methods_resolved:
        raise DomainError("at least one method is required")

    def one(rep: int) -> list[RunMetrics]:
        return _run_one_rep(spec, methods_resolved, n_b, mode, stat_mode, utility,
                            seed, rep)

    if threads == 1:
        per_rep = [one(rep) for rep in range(reps)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(one, range(reps)))
    rows = [row for rep_rows in per_rep for row in rep_rows]
    return ExperimentResult(rows, [m.variant for m in methods_resolved])
