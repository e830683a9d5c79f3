import numpy as np
import pytest

from activetest.allocation import UtilitySpec
from activetest.core import E_VALUES, P_GENERAL, P_INDEPENDENT
from activetest.engine import (
    HypothesisRecord,
    HypothesisSet,
    LazyValues,
    MethodSpec,
    run_method,
    xu_query_prob,
)
from activetest.errors import DegenerateUtilitiesError, DomainError


def counted_records(aux, exact):
    """Records whose exact statistics count their own evaluations."""
    calls = {"n": 0, "per": [0] * len(aux)}

    def make(i, v):
        def fetch():
            calls["n"] += 1
            calls["per"][i] += 1
            return v

        return fetch

    records = [
        HypothesisRecord(id=f"h{i}", aux=float(a), exact=make(i, float(v)))
        for i, (a, v) in enumerate(zip(aux, exact))
    ]
    return records, calls


def run_active(records, mode, n_b, utility, beta=0.5, **kw):
    return run_method(records, MethodSpec("active", beta=beta), mode=mode, n_b=n_b,
                      utility=utility, **kw)


def run_active_xu(records, beta, mode, n_b, **kw):
    return run_method(records, MethodSpec("active-xu", beta=beta), mode=mode, n_b=n_b, **kw)


def run_xu(records, beta, mode, **kw):
    return run_method(records, MethodSpec("xu", beta=beta), mode=mode, n_b=0.0, **kw)


def run_random(records, n_b, mode=E_VALUES, **kw):
    return run_method(records, MethodSpec("random"), mode=mode, n_b=n_b, **kw)


def run_all(records, mode=E_VALUES, **kw):
    return run_method(records, MethodSpec("all"), mode=mode, n_b=float(len(records)), **kw)


class TestActiveDefaultTrace:
    def test_worked_trace(self):
        records, calls = counted_records([1.0, 2.0, 3.0], [5.0, 20.0, 30.0])
        out = run_active(records, E_VALUES, 3.0, UtilitySpec.identity(),
                         u=np.array([0.9, 0.9, 0.1]))
        np.testing.assert_allclose(out.h, [0.5, 1.0, 1.5])
        assert out.values[0] == 1.0 and not out.queried[0]
        assert out.values[1] == 0.5 * 20.0 and out.queried[1]
        assert out.values[2] == (0.5 / 1.5) * 30.0 and out.queried[2]
        assert out.n_queries == 2
        assert calls["n"] == 2
        assert calls["per"] == [0, 1, 1]

    def test_full_budget_reduces_to_always_query(self):
        n = 6
        records, _ = counted_records([2.0] * n, np.arange(1.0, n + 1.0))
        out = run_active(records, E_VALUES, float(n), UtilitySpec.identity())
        np.testing.assert_allclose(out.h, np.ones(n))
        assert out.n_queries == n
        np.testing.assert_allclose(out.values, 0.5 * np.arange(1.0, n + 1.0))

    def test_p_general_trace(self):
        records, _ = counted_records([0.5, 0.5], [0.02, 0.8])
        out = run_active(records, P_GENERAL, 1.0, UtilitySpec.custom([0, 1], [1, 1]),
                         u=np.array([0.1, 0.1]))
        np.testing.assert_allclose(out.h, [0.5, 0.5])
        assert out.values[0] == pytest.approx(0.04)
        assert out.values[1] == 1.0

    def test_aux_domain_error_names_id(self):
        records = [
            HypothesisRecord("ok", 0.5, 0.5),
            HypothesisRecord("bad", 1.5, 0.5),
        ]
        with pytest.raises(DomainError, match="bad"):
            run_active(records, P_INDEPENDENT, 1.0, UtilitySpec.log_inverse())

    def test_evaluation_failure_names_id(self):
        def boom():
            raise RuntimeError("storage offline")

        records = [HypothesisRecord("fine", 4.0, 2.0), HypothesisRecord("broken", 4.0, boom)]
        with pytest.raises(DomainError, match="broken"):
            run_active(records, E_VALUES, 2.0, UtilitySpec.identity(), u=np.array([0.0, 0.0]))

    def test_evaluation_failure_names_id_in_a_sequence(self):
        def boom():
            raise RuntimeError("storage offline")

        hs = HypothesisSet([4.0, 4.0], [2.0, boom], ids=["fine", "broken"])
        with pytest.raises(DomainError, match="broken"):
            run_all(hs)


class TestRunAll:
    def test_five_records(self):
        exact = [3.0, 1.0, 4.0, 1.5, 9.0]
        records, calls = counted_records([1.0] * 5, exact)
        out = run_all(records)
        assert out.n_queries == 5
        assert calls["n"] == 5
        np.testing.assert_array_equal(out.values, exact)
        assert np.all(out.queried)

    def test_carries_ids_mode_and_seed(self):
        hs = HypothesisSet(aux=[0.5, 0.5, 0.5], exact=np.array([0.1, 0.2, 0.3]),
                           ids=["c", "a", "b"])
        out = run_method(hs, MethodSpec("all"), mode=P_INDEPENDENT, n_b=3.0, seed=9)
        assert out.ids == ["c", "a", "b"]
        assert out.mode == P_INDEPENDENT
        assert out.seed == 9
        assert out.to_csv().splitlines()[1].startswith("c,")

    @pytest.mark.parametrize("method", ["random", "all"])
    def test_exact_domain_checked(self, method):
        hs = HypothesisSet(aux=[0.5, 0.5], exact=np.array([0.2, 1.5]))
        with pytest.raises(DomainError, match="p-value"):
            run_method(hs, MethodSpec(method), mode=P_INDEPENDENT, n_b=2.0)

    @pytest.mark.parametrize("method", ["random", "all"])
    def test_aux_domain_checked(self, method):
        hs = HypothesisSet(aux=[0.5, -1.0], exact=np.array([2.0, 3.0]), ids=["ok", "neg"])
        with pytest.raises(DomainError, match="neg"):
            run_method(hs, MethodSpec(method), mode=E_VALUES, n_b=2.0)

    @pytest.mark.parametrize("method", ["random", "all"])
    def test_no_branch_draws_to_replay(self, method):
        records, _ = counted_records([1.0] * 2, [1.0] * 2)
        with pytest.raises(DomainError, match="replay"):
            run_method(records, MethodSpec(method), mode=E_VALUES, n_b=1.0, u=[0.5, 0.5])


class TestRunRandom:
    def test_zero_budget(self):
        records, calls = counted_records([1.0] * 4, [5.0] * 4)
        out = run_random(records, n_b=0, seed=1)
        assert out.n_queries == 0
        assert calls["n"] == 0
        np.testing.assert_array_equal(out.values, np.ones(4))

    def test_full_budget_matches_run_all(self):
        exact = [3.0, 1.0, 4.0, 1.5]
        records, _ = counted_records([1.0] * 4, exact)
        out = run_random(records, n_b=4, seed=1)
        np.testing.assert_array_equal(out.values, exact)
        assert out.n_queries == 4

    def test_carries_ids_and_mode(self):
        hs = HypothesisSet(aux=[0.5, 0.5], exact=np.array([0.1, 0.2]), ids=["x", "y"])
        out = run_method(hs, MethodSpec("random"), mode=P_GENERAL, n_b=1.0, seed=3)
        assert out.ids == ["x", "y"]
        assert out.mode == P_GENERAL

    def test_partial_subset_reproducible(self):
        records, calls = counted_records([1.0] * 4, [2.0, 3.0, 4.0, 5.0])
        out1 = run_random(records, n_b=2, seed=7)
        assert out1.n_queries == 2
        assert int(np.count_nonzero(out1.queried)) == 2
        out2 = run_random(records, n_b=2, seed=7)
        np.testing.assert_array_equal(out1.queried, out2.queried)
        np.testing.assert_array_equal(out1.values, out2.values)
        assert calls["per"] == [int(q) * 2 for q in out1.queried]

    def test_subset_sizes_exact_across_reps(self):
        records, _ = counted_records([1.0] * 30, [1.0] * 30)
        for rep in range(25):
            out = run_random(records, n_b=11, seed=3, rep=rep)
            assert out.n_queries == 11

    def test_subset_coverage_over_reps(self):
        # every position should get sampled eventually
        n = 10
        records, _ = counted_records([1.0] * n, [1.0] * n)
        hits = np.zeros(n)
        for rep in range(200):
            out = run_random(records, n_b=3, seed=5, rep=rep)
            hits += out.queried
        assert np.all(hits > 0)
        # frequencies close to uniform 200*3/10 = 60
        assert np.all(np.abs(hits - 60) < 30)

    def test_non_integer_budget_rejected(self):
        records, _ = counted_records([1.0] * 4, [1.0] * 4)
        with pytest.raises(DomainError):
            run_random(records, n_b=1.5, seed=1)

    def test_budget_bounds(self):
        records, _ = counted_records([1.0] * 4, [1.0] * 4)
        with pytest.raises(DomainError):
            run_random(records, n_b=-1, seed=1)
        with pytest.raises(DomainError):
            run_random(records, n_b=5, seed=1)

    def test_null_mean_stays_valid(self):
        # unqueried = 1 and queried = raw exact keeps the e-value property
        rng = np.random.default_rng(17)
        n = 40_000
        exact = np.exp(rng.normal(size=n) - 0.5)
        hs = HypothesisSet(np.ones(n), exact)
        out = run_random(hs, n_b=4_000, seed=23)
        mean = out.values.mean()
        se = out.values.std(ddof=1) / np.sqrt(n)
        assert mean <= 1.0 + 3.0 * se


class TestRunXu:
    def test_query_prob_examples(self):
        assert xu_query_prob(np.array([2.0]), 0.5, E_VALUES)[0] == 0.75
        assert xu_query_prob(np.array([0.4]), 0.5, E_VALUES)[0] == 0.0
        assert xu_query_prob(np.array([0.0]), 0.5, E_VALUES)[0] == 0.0
        assert xu_query_prob(np.array([0.2]), 0.5, P_INDEPENDENT)[0] == 1.0 - 0.5 * 0.2

    def test_e_mode_no_query_reports_aux(self):
        records, calls = counted_records([0.4], [100.0])
        out = run_xu(records, beta=0.5, mode=E_VALUES, u=np.array([0.0]))
        assert not out.queried[0]
        assert out.values[0] == 0.4
        assert calls["n"] == 0

    def test_e_mode_query_scales_exact(self):
        records, _ = counted_records([2.0], [4.0])
        out = run_xu(records, beta=0.5, mode=E_VALUES, u=np.array([0.5]))
        assert out.queried[0]
        assert out.values[0] == 0.5 * 4.0

    def test_p_mode_query_example(self):
        records, _ = counted_records([0.2], [0.01])
        out = run_xu(records, beta=0.5, mode=P_INDEPENDENT, u=np.array([0.0]))
        assert out.queried[0]
        assert out.values[0] == pytest.approx(0.02)

    def test_p_mode_query_clamped(self):
        records, _ = counted_records([0.0], [0.9])
        out = run_xu(records, beta=0.5, mode=P_INDEPENDENT, u=np.array([0.0]))
        assert out.values[0] == 1.0

    def test_no_budget_queries_grow_with_aux(self):
        # large auxiliaries make Xu query nearly everything
        n = 2_000
        records = HypothesisSet(np.full(n, 5.0), np.ones(n))
        out = run_xu(records, beta=0.5, mode=E_VALUES, seed=3)
        assert out.n_queries > 2 * (0.1 * n)


class TestRunActiveXu:
    def test_e_mode_allocation_example(self):
        records, _ = counted_records([1.0, 2.0], [1.0, 1.0])
        out = run_active_xu(records, beta=0.5, mode=E_VALUES, n_b=1.0, u=np.array([0.99, 0.99]))
        np.testing.assert_allclose(out.h, [0.4, 0.6])

    def test_p_mode_allocation_example(self):
        records, _ = counted_records([0.0, 1.0], [0.5, 0.5])
        out = run_active_xu(records, beta=0.5, mode=P_GENERAL, n_b=1.0, u=np.array([0.99, 0.99]))
        np.testing.assert_allclose(out.h, [2.0 / 3.0, 1.0 / 3.0])

    def test_implied_utility_formulas(self):
        # active-xu allocates with the Xu query probability as its utility
        aux = np.array([0.2, 1.0, 4.0])
        np.testing.assert_allclose(
            xu_query_prob(aux, 0.5, E_VALUES), [0.0, 0.5, 0.875]
        )
        np.testing.assert_allclose(
            xu_query_prob(np.array([0.0, 0.5, 1.0]), 0.5, P_INDEPENDENT),
            [1.0, 0.75, 0.5],
        )

    def test_all_aux_below_beta_degenerates(self):
        records, _ = counted_records([0.1, 0.2], [1.0, 1.0])
        with pytest.raises(DegenerateUtilitiesError):
            run_active_xu(records, beta=0.5, mode=E_VALUES, n_b=1.0)


class TestQueryAccounting:
    @pytest.mark.parametrize("method", ["active", "active-xu", "xu", "random", "all"])
    def test_n_queries_equals_evaluations(self, method):
        rng = np.random.default_rng(29)
        n = 200
        aux = rng.exponential(size=n) + 1.0
        exact = rng.exponential(size=n)
        records, calls = counted_records(aux, exact)
        out = run_method(
            records,
            MethodSpec(method),
            mode=E_VALUES,
            n_b=40,
            seed=31,
            utility=UtilitySpec.log1p(),
        )
        assert out.n_queries == calls["n"]
        assert out.n_queries == int(np.count_nonzero(out.queried))
        assert max(calls["per"]) <= 1

    def test_lazy_values_fetch_once(self):
        calls = []

        def fetch(idx):
            calls.append(np.array(idx))
            return np.asarray(idx, dtype=float) * 2.0

        lazy = LazyValues(fetch, 6)
        np.testing.assert_array_equal(lazy.take(np.array([1, 3, 1])), [2.0, 6.0, 2.0])
        np.testing.assert_array_equal(lazy.take(np.array([3, 4])), [6.0, 8.0])
        assert lazy.eval_count == 3
        touched = np.concatenate(calls)
        assert sorted(touched.tolist()) == [1, 3, 4]


class TestBudgetAdherence:
    def test_mean_and_tail_over_200_reps(self):
        rng = np.random.default_rng(37)
        n, n_b = 500, 50
        aux = rng.exponential(size=n)
        records = HypothesisSet(aux, np.ones(n), ids=[f"g{i}" for i in range(n)])
        counts = []
        expected = None
        for rep in range(200):
            out = run_active(records, E_VALUES, float(n_b), UtilitySpec.log1p(),
                             seed=41, rep=rep)
            counts.append(out.n_queries)
            expected = out.allocation.expected_queries
        counts = np.asarray(counts, dtype=float)
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - expected) <= 3.0 * se
        assert expected <= n_b + 1e-9
        assert counts.max() <= n_b + 4.0 * np.sqrt(n_b)


class TestOrderIndependence:
    @pytest.mark.parametrize("runner", ["active", "active-xu", "xu"])
    def test_permuting_records_permutes_outputs_bitwise(self, runner):
        rng = np.random.default_rng(43)
        n = 120
        aux = rng.exponential(size=n) + 0.6
        exact = rng.exponential(size=n)
        ids = [f"m{i}" for i in range(n)]

        def run(a, e, idlist):
            hs = HypothesisSet(a, e, ids=idlist)
            if runner == "active":
                return run_active(hs, E_VALUES, 20.0, UtilitySpec.log1p(), seed=47, rep=2)
            if runner == "active-xu":
                return run_active_xu(hs, beta=0.5, mode=E_VALUES, n_b=20.0, seed=47, rep=2)
            return run_xu(hs, beta=0.5, mode=E_VALUES, seed=47, rep=2)

        base = run(aux, exact, ids)
        perm = rng.permutation(n)
        permuted = run(aux[perm], exact[perm], [ids[i] for i in perm])
        np.testing.assert_array_equal(permuted.values, base.values[perm])
        np.testing.assert_array_equal(permuted.queried, base.queried[perm])
        np.testing.assert_array_equal(permuted.h, base.h[perm])


class TestRecordsAndOutput:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError):
            HypothesisSet([1.0, 2.0], [1.0, 1.0], ids=["a", "a"])

    def test_partial_truth_rejected(self):
        records = [
            HypothesisRecord("a", 1.0, 1.0, truth=True),
            HypothesisRecord("b", 1.0, 1.0),
        ]
        with pytest.raises(DomainError):
            HypothesisSet.from_records(records)

    def test_replayed_draws_must_align(self):
        records, _ = counted_records([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(DomainError, match="branch draw"):
            run_xu(records, beta=0.5, mode=E_VALUES, u=np.array([0.1, 0.2, 0.3]))

    def test_truth_labels_untouched(self):
        records = [
            HypothesisRecord("a", 1.0, 3.0, truth=True),
            HypothesisRecord("b", 2.0, 4.0, truth=False),
        ]
        hs = HypothesisSet.from_records(records)
        run_all(hs)
        np.testing.assert_array_equal(hs.truth, [True, False])

    def test_to_csv_shape(self):
        records, _ = counted_records([1.0, 2.0], [3.0, 4.0])
        out = run_active(records, E_VALUES, 1.0, UtilitySpec.identity(), u=np.array([0.9, 0.1]))
        lines = out.to_csv().strip().split("\n")
        assert lines[0] == "id,value,queried,branch,h"
        assert len(lines) == 3
        assert lines[1].startswith("h0,") and ",false,no_query," in lines[1]
        assert lines[2].startswith("h1,") and ",true,query," in lines[2]

    def test_method_spec_validation(self):
        with pytest.raises(DomainError):
            MethodSpec("bogus")

    def test_run_method_requires_utility_for_active(self):
        records, _ = counted_records([1.0], [1.0])
        with pytest.raises(DomainError, match="utility"):
            run_method(records, MethodSpec("active"), mode=E_VALUES, n_b=1.0)

    def test_run_method_uses_fallback_utility(self):
        records, _ = counted_records([1.0, 3.0], [1.0, 1.0])
        out = run_method(
            records, MethodSpec("active"), mode=E_VALUES, n_b=1.0,
            utility=UtilitySpec.identity(),
        )
        np.testing.assert_allclose(out.h, [0.25, 0.75])
