"""Walkthrough of the active e-value and p-value constructions.

An active statistic spends one Bernoulli draw per hypothesis: with
probability min(1, h) it queries the expensive exact statistic and rescales
it, otherwise it falls back to a value determined by h alone.  Validity
(null mean <= 1 for e-values, super-uniformity for p-values) holds for any
allocation h computed from the cheap auxiliaries.

Run as: python3 demos/active_statistics.py
"""

import numpy as np

from activetest.core import (
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    active_e,
    active_p,
    active_values,
)
from activetest.rng import DEFAULT_SEED, QUERY_DRAW, uniforms

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
u = uniforms(DEFAULT_SEED, 0, rng_idx, QUERY_DRAW)


def fetch(idx):
    # stands in for the expensive computation; sees only queried indices
    print(f"   fetch called for indices {idx.tolist()}")
    return np.full(idx.shape, 1.0)


values, queried = active_values(h, u, fetch, E_VALUES, beta=0.5)
print(f"values:  {np.round(values, 3).tolist()}")
print(f"queried: {queried.tolist()}  ({int(queried.sum())} of {len(aux)})")
