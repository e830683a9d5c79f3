"""Desk-scale replication study comparing query strategies.

Five methods run on identical data: the budgeted utility allocation
("active"), the same machinery driven by threshold-rule probabilities
("active-xu"), the unbudgeted threshold rule ("xu"), a uniform random
subset ("random"), and the query-everything ceiling ("all").  Outputs feed
the e-value step-up procedure; metrics average over replications.

Run as: python3 demos/simulation_study.py
"""

import numpy as np

from activetest.simulate import (
    DESK_BUDGET,
    DESK_N,
    DgpSpec,
    run_experiment,
)

METHODS = ["active", "active-xu", "xu", "random", "all"]


def show(result, title):
    print(title)
    print(f"{'method':<11}{'FDR':>8}{'TPR':>8}{'queries':>10}{'efficiency':>12}")
    for a in result.aggregate():
        print(f"{a.method:<11}{a.fdr:>8.4f}{a.tpr:>8.4f}"
              f"{a.queries_mean:>10.1f}{a.efficiency_mean:>9.4f} "
              f"+- {a.efficiency_se:.4f}")
    print()


spec = DgpSpec("signal", DESK_N, pi=0.2)
res = run_experiment(spec, METHODS, n_b=DESK_BUDGET, reps=50, seed=42, mode="e")
show(res, f"== count-proxy DGP, e-values, N={DESK_N}, budget {DESK_BUDGET}, "
          f"50 reps ==")

# the threshold rule has no budget: at pi=0.2 it queries ~10x the allowance
xu_mean = np.mean(res.column("xu", "queries"))
print(f"note the xu row: {xu_mean:.0f} mean queries against a budget of "
      f"{DESK_BUDGET}\n")

spec = DgpSpec("noisy", DESK_N, pi=0.2, sigma=3.0)
res = run_experiment(spec, METHODS, n_b=DESK_BUDGET, reps=50, seed=42, mode="p")
show(res, "== noisy-proxy DGP (sigma=3), p-values ==")

print("== efficiency vs proxy quality (correlated DGP, e-values) ==")
for rho in (0.2, 0.5, 0.9):
    spec = DgpSpec("correlated", DESK_N, pi=0.2, rho=rho)
    res = run_experiment(spec, ["active"], n_b=DESK_BUDGET, reps=50, seed=42,
                         mode="e")
    a = res.aggregate()[0]
    print(f"   rho={rho}: efficiency {a.efficiency_mean:.4f} "
          f"+- {a.efficiency_se:.4f}")
print("a better proxy turns the same budget into more true discoveries")
