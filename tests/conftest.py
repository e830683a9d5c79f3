"""Shared test fixtures: brute-force procedure oracles, null samplers, and the
Monte Carlo validity and dominance checks that run on them."""

from __future__ import annotations

import numpy as np
import pytest

from activetest.core import E_VALUES, active_values
from activetest.rng import uniforms
from scipy.special import ndtri


# ---------------------------------------------------------------------------
# brute-force step-up oracles (independent of the library implementations)
# ---------------------------------------------------------------------------

def oracle_bh(p, alpha):
    """Largest k with p_(k) <= k*alpha/n by explicit search; threshold rejection."""
    n = len(p)
    ordered = sorted(p)
    k_hat = 0
    for k in range(1, n + 1):
        if ordered[k - 1] <= k * alpha / n:
            k_hat = k
    if k_hat == 0:
        return set(), 0
    threshold = k_hat * alpha / n
    return {i for i, v in enumerate(p) if v <= threshold}, k_hat


def oracle_by(p, alpha):
    h = sum(1.0 / i for i in range(len(p), 0, -1))
    return oracle_bh(p, alpha / h)


def oracle_ebh(e, alpha):
    n = len(e)
    ordered = sorted(e, reverse=True)
    k_hat = 0
    for k in range(1, n + 1):
        if ordered[k - 1] >= n / (alpha * k):
            k_hat = k
    if k_hat == 0:
        return set(), 0
    threshold = n / (alpha * k_hat)
    return {i for i, v in enumerate(e) if v >= threshold}, k_hat


@pytest.fixture
def procedure_oracles():
    return {"bh": oracle_bh, "by": oracle_by, "ebh": oracle_ebh}


# ---------------------------------------------------------------------------
# null samplers for the validity batteries
#
# Exact e-values are exp(Z - 1/2) with Z standard normal (unit mean), exact
# p-values are Phi(-Z) (uniform).  Auxiliaries vary from independent to
# functionally dependent.
# ---------------------------------------------------------------------------

# purpose tags of the Monte Carlo draws, apart from every tag in activetest.rng
MC_BRANCH = 8  # branch draws of the validity checks
MC_SAMPLE = 9  # statistic draws of the null samplers


def _normals(n, seed, tag):
    return ndtri(uniforms(seed, tag, np.arange(n, dtype=np.uint64), MC_SAMPLE))


def e_sampler_independent(n, seed):
    z = _normals(n, seed, 0)
    w = _normals(n, seed, 1)
    return np.exp(w - 0.5), np.exp(z - 0.5)


def e_sampler_noisy(n, seed):
    z = _normals(n, seed, 0)
    eps = _normals(n, seed, 1)
    return np.exp((z + eps) / np.sqrt(2.0) - 0.5), np.exp(z - 0.5)


def e_sampler_correlated(n, seed):
    z = _normals(n, seed, 0)
    w = 0.7 * z + np.sqrt(1 - 0.7**2) * _normals(n, seed, 1)
    return np.exp(w - 0.5), np.exp(z - 0.5)


def e_sampler_adversarial(n, seed):
    z = _normals(n, seed, 0)
    e = np.exp(z - 0.5)
    return e, e


def p_sampler_independent(n, seed):
    from scipy.special import ndtr

    z = _normals(n, seed, 0)
    w = _normals(n, seed, 1)
    return ndtr(-w), ndtr(-z)


def p_sampler_noisy(n, seed):
    from scipy.special import ndtr

    z = _normals(n, seed, 0)
    eps = _normals(n, seed, 1)
    return ndtr(-(z + eps) / np.sqrt(2.0)), ndtr(-z)


def p_sampler_correlated(n, seed):
    from scipy.special import ndtr

    z = _normals(n, seed, 0)
    w = 0.7 * z + np.sqrt(1 - 0.7**2) * _normals(n, seed, 1)
    return ndtr(-w), ndtr(-z)


def p_sampler_adversarial(n, seed):
    from scipy.special import ndtr

    z = _normals(n, seed, 0)
    p = ndtr(-z)
    return p, p


E_SAMPLERS = {
    "independent": e_sampler_independent,
    "noisy": e_sampler_noisy,
    "correlated": e_sampler_correlated,
    "adversarial": e_sampler_adversarial,
}

P_SAMPLERS = {
    "independent": p_sampler_independent,
    "noisy": p_sampler_noisy,
    "correlated": p_sampler_correlated,
    "adversarial": p_sampler_adversarial,
}

# allocation maps used by the batteries; e-type auxiliaries live in [0, inf),
# p-type in [0, 1]
E_H_FNS = {
    "saturating": lambda x: x / (1.0 + x),
    "constant": lambda x: np.full_like(np.asarray(x, dtype=float), 0.4),
    "clamping": lambda x: 1.5 * x / (1.0 + x),
}

P_H_FNS = {
    "linear": lambda x: 1.0 - np.asarray(x, dtype=float),
    "constant": lambda x: np.full_like(np.asarray(x, dtype=float), 0.4),
    "clamping": lambda x: 1.8 * (1.0 - np.asarray(x, dtype=float)),
}

S_GRID = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo validity checks and the dominance check
# ---------------------------------------------------------------------------

def _mc_values(sampler, h_fn, beta, mode, n_samples, seed):
    """Active values of ``mode`` on ``n_samples`` (auxiliary, exact) pairs from ``sampler``."""
    aux, exact = sampler(n_samples, seed)
    u = uniforms(seed, 0, np.arange(n_samples, dtype=np.uint64), MC_BRANCH)
    return active_values(h_fn(aux), u, lambda idx: exact[idx], mode, beta)[0]


def mc_evalue_validity(sampler, h_fn, beta, n_samples=100_000, seed=0):
    """(mean, se) of the active e-value under the sampled null: valid keeps mean <= 1."""
    values = _mc_values(sampler, h_fn, beta, E_VALUES, n_samples, seed)
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(n_samples))


def mc_pvalue_superuniformity(sampler, h_fn, beta, mode, s_grid, n_samples=100_000, seed=0):
    """(ecdf, se) of the active p-value at the levels ``s_grid``: valid keeps ecdf <= s."""
    values = _mc_values(sampler, h_fn, beta, mode, n_samples, seed)
    ecdf = np.array([np.mean(values <= s) for s in s_grid])
    return ecdf, np.sqrt(ecdf * (1.0 - ecdf) / n_samples)


_RTOL = 1e-12


def dominance_check(candidate_a, candidate_b, h_fn, beta):
    """Whether the canonical pair a* = beta / (1 - h), b* = (1 - beta) / h
    dominates a candidate wherever 0 < h < 1.  The candidate is a no-query
    value a and a query scale b, as (grid, values) tables on one grid of
    auxiliary values; one outside the validity envelope a (1 - h) <= beta,
    b h <= 1 - beta raises ValueError."""
    (xs, a), (_, b) = candidate_a, candidate_b
    h = h_fn(xs)
    # written as "any above", so the nan of an infinite a at h = 1 (inf * 0) passes
    with np.errstate(invalid="ignore"):
        if (np.any(a * np.maximum(0.0, 1.0 - h) > beta * (1.0 + _RTOL))
                or np.any(b * h > (1.0 - beta) * (1.0 + _RTOL))):
            raise ValueError("candidate violates the validity envelope")
    inner = (h > 0.0) & (h < 1.0)
    return bool(np.all(a[inner] <= beta / (1.0 - h[inner]) * (1.0 + _RTOL))
                and np.all(b[inner] <= (1.0 - beta) / h[inner] * (1.0 + _RTOL)))
