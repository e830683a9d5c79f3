"""How a global query budget becomes per-hypothesis query probabilities.

Allocation levels are proportional to a utility score of each auxiliary
value, normalized so the levels sum to the budget.  Heavy-tailed utilities
waste budget on clamped levels (h > 1 still costs at most one query); the
log families compress the range so the budget spreads further.

Run as: python3 demos/budget_allocation.py
"""

import numpy as np

from activetest.allocation import BudgetConfig, UtilitySpec, allocate

rng = np.random.default_rng(7)

print("== a small allocation by hand ==")
aux = np.array([1.0, 2.0, 3.0])
budget = BudgetConfig(n_b=3.0, n_hypotheses=3)
res = allocate(aux, UtilitySpec.identity(), budget)
print(f"aux {aux.tolist()} with budget 3 -> levels {res.h.tolist()}")
print(f"expected queries {res.expected_queries} (level 1.5 is clamped to "
      f"probability 1, so the expectation drops below the budget)")

print()
print("== heavy tails: identity vs log1p ==")
# one enormous auxiliary; 999 ordinary ones
aux = np.concatenate([[1e6], rng.uniform(0.5, 1.5, size=999)])
budget = BudgetConfig(n_b=100.0, n_hypotheses=1000)
for spec, name in ((UtilitySpec.identity(), "identity"),
                   (UtilitySpec.log1p(), "log1p")):
    res = allocate(aux, spec, budget)
    print(f"{name:9s}: expected queries {res.expected_queries:7.2f}, "
          f"clamped levels {res.clamp_count}")
print("log1p spends nearly the whole budget; identity dumps it on one row")

print()
print("== inverse-signal auxiliaries (small p-value = interesting) ==")
p_aux = np.array([1e-8, 1e-4, 0.05, 0.5, 0.99])
res = allocate(p_aux, UtilitySpec.log_inverse(eps=1e-8), BudgetConfig(2.0, 5))
for p, h in zip(p_aux, res.h):
    print(f"   p_aux {p:8.2e} -> h {h:.4f}")
