"""Walkthrough of the active e-value and p-value constructions.

An active statistic spends one Bernoulli draw per hypothesis: with
probability min(1, h) it queries the expensive exact statistic and rescales
it, otherwise it falls back to a value determined by h alone.  Validity
(null mean <= 1 for e-values, super-uniformity for p-values) holds for any
allocation h computed from the cheap auxiliaries.

Run as: python3 demos/active_statistics.py
"""

import numpy as np
from scipy.special import ndtr, ndtri

from activetest.core import (
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    active_e,
    active_p,
    active_values,
    dominance_check,
    mc_evalue_validity,
    mc_pvalue_superuniformity,
)
from activetest.rng import DEFAULT_SEED, MC_SAMPLE, uniforms

print("== single hypotheses ==")

# query branch: u = 0.1 < h = 0.25, so the exact e-value 3.0 is fetched and
# rescaled by (1 - beta) / h
out = active_e(3.0, 0.25, beta=0.4, u=0.1)
print(f"queried e-value:   value={out.value:.4f} queried={out.queried}")

# no-query branch: the fallback beta / (1 - h) never touches the exact value
out = active_e(lambda: 1 / 0, 0.25, beta=0.4, u=0.9)
print(f"unqueried e-value: value={out.value:.4f} queried={out.queried}")

out = active_p(0.03, 0.5, beta=0.5, u=0.2, mode=P_INDEPENDENT)
print(f"queried p-value (independent construction): {out.value:.4f}")
out = active_p(0.03, 0.5, beta=0.5, u=0.2, mode=P_GENERAL)
print(f"queried p-value (general construction):     {out.value:.4f}")

print()
print("== vectorized batch with a lazy evaluator ==")

rng_idx = np.arange(8, dtype=np.uint64)
aux = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 0.0, 16.0])
h = aux / (1.0 + aux)
u = uniforms(DEFAULT_SEED, 0, rng_idx, MC_SAMPLE)


def fetch(idx):
    # stands in for the expensive computation; sees only queried indices
    print(f"   fetch called for indices {idx.tolist()}")
    return np.full(idx.shape, 1.0)


values, queried = active_values(h, u, fetch, E_VALUES, beta=0.5)
print(f"values:  {np.round(values, 3).tolist()}")
print(f"queried: {queried.tolist()}  ({int(queried.sum())} of {len(aux)})")

print()
print("== Monte Carlo validity under dependent proxies ==")


def normals(n, seed, tag):
    return ndtri(uniforms(seed, tag, np.arange(n, dtype=np.uint64), MC_SAMPLE))


def e_sampler_correlated(n, seed):
    z = normals(n, seed, 0)
    w = 0.7 * z + np.sqrt(1 - 0.49) * normals(n, seed, 1)
    return np.exp(w - 0.5), np.exp(z - 0.5)


def p_sampler_shared(n, seed):
    # adversarial: the proxy IS the exact p-value
    z = normals(n, seed, 0)
    p = ndtr(-z)
    return p, p


mean, se = mc_evalue_validity(e_sampler_correlated, lambda x: x / (1 + x),
                              beta=0.5, n_samples=100_000, seed=DEFAULT_SEED)
print(f"e-value null mean {mean:.4f} (+- {se:.4f}); valid iff <= 1 up to noise")

grid = np.array([0.01, 0.05, 0.1, 0.25, 0.5, 1.0])
ecdf, se = mc_pvalue_superuniformity(p_sampler_shared, lambda x: 1.0 - x,
                                     beta=0.5, mode=P_GENERAL, s_grid=grid,
                                     n_samples=100_000, seed=DEFAULT_SEED)
print("p-value ecdf vs level (general construction, shared-proxy coupling):")
for s, f in zip(grid, ecdf):
    print(f"   P(p <= {s:<4}) = {f:.4f}")

print()
print("== the canonical branch pair dominates any valid alternative ==")

xs = np.linspace(0.0, 10.0, 101)
h_fn = lambda x: x / (1.0 + x)
beta = 0.5
# any candidate obeying the envelope sup a(1-h) <= beta, sup b h <= 1-beta
cand_a = (xs, 0.8 * beta / (1.0 - np.minimum(1.0, h_fn(xs)) + 1e-12))
cand_b = (xs, 0.9 * (1.0 - beta) / np.maximum(h_fn(xs), 1e-12))
print("canonical pair dominates the scaled-down candidate:",
      dominance_check(cand_a, cand_b, h_fn, beta))
