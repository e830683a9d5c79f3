import csv
import io
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activetest import engine
from activetest.core import E_VALUES, P_GENERAL, P_INDEPENDENT, active_values
from activetest.engine import (
    HypothesisSet,
    MethodSpec,
    UniqueIds,
    _random_subset,
    csv_text,
    run_method,
    xu_query_prob,
)
from activetest.errors import DegenerateUtilitiesError, DomainError
from activetest.rng import DEFAULT_SEED, QUERY_DRAW, SUBSET_DRAW, uniforms


def counted_records(aux, exact):
    """A hypothesis set whose index callable counts the reads of each row."""
    calls = {"n": 0, "per": [0] * len(aux)}
    values = np.asarray(exact, dtype=np.float64)

    def fetch(idx):
        calls["n"] += idx.size
        for i in idx.tolist():
            calls["per"][i] += 1
        return values[idx]

    return HypothesisSet(aux, fetch, ids=[f"h{i}" for i in range(len(aux))]), calls


def swap_reference(n, n_b, seed, rep):
    """The Random baseline's subset as first written: partial Fisher-Yates
    swaps in a full permutation array."""
    perm = np.arange(n)
    draws = uniforms(seed, rep, np.arange(n_b, dtype=np.uint64), SUBSET_DRAW)
    for i in range(n_b):
        j = i + int(draws[i] * (n - i))
        perm[i], perm[j] = perm[j], perm[i]
    want = np.zeros(n, dtype=bool)
    want[perm[:n_b]] = True
    return want


def stable_argsort_subset(n, n_b, seed, rep):
    """The Random baseline's pointer-jumping subset with its steps grouped
    by a stable argsort of their targets, as it was before grouping moved
    to a sort of unique (target, step) keys."""
    n_b = int(n_b)
    queried = np.zeros(n, dtype=bool)
    if not n_b:
        return queried
    steps = np.arange(n_b)
    draws = uniforms(seed, rep, steps, SUBSET_DRAW)
    targets = steps + (draws * (n - steps)).astype(np.intp)
    order = np.argsort(targets, kind="stable")
    grouped = targets[order]
    again = grouped[1:] == grouped[:-1]
    earlier = np.full(n_b, -1)
    earlier[order[1:][again]] = order[:-1][again]
    last = np.append(~again, True)
    last_target, last_step = grouped[last], order[last]
    inside = last_target < n_b
    source = steps.copy()
    source[last_target[inside]] = last_step[inside]
    while True:
        jumped = source[source]
        if np.array_equal(jumped, source):
            break
        source = jumped
    queried[np.where(earlier >= 0, source[earlier], targets)] = True
    return queried


def run_active(records, mode, n_b, utility, beta=0.5, **kw):
    return run_method(records, MethodSpec("active", beta=beta), mode=mode, n_b=n_b,
                      utility=utility, **kw)


def run_active_xu(records, beta, mode, n_b, **kw):
    return run_method(records, MethodSpec("active-xu", beta=beta), mode=mode, n_b=n_b, **kw)


def run_xu(records, beta, mode, **kw):
    return run_method(records, MethodSpec("xu", beta=beta), mode=mode, n_b=float(len(records)),
                      **kw)


def run_random(records, n_b, mode=E_VALUES, **kw):
    return run_method(records, MethodSpec("random"), mode=mode, n_b=n_b, **kw)


def run_all(records, mode=E_VALUES, **kw):
    return run_method(records, MethodSpec("all"), mode=mode, n_b=float(len(records)), **kw)


class TestActiveDefaultTrace:
    def test_worked_trace(self, monkeypatch):
        records, calls = counted_records([1.0, 2.0, 3.0], [5.0, 20.0, 30.0])
        monkeypatch.setattr(engine, "_branch_draws",
                            lambda hs, seed, rep: np.array([0.9, 0.9, 0.1]))
        out = run_active(records, E_VALUES, 3.0, "identity")
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
        out = run_active(records, E_VALUES, float(n), "identity")
        np.testing.assert_allclose(out.h, np.ones(n))
        assert out.n_queries == n
        np.testing.assert_allclose(out.values, 0.5 * np.arange(1.0, n + 1.0))

    def test_p_general_trace(self):
        # levels of 1 query both rows whatever the draw
        records, _ = counted_records([0.5, 0.5], [0.02, 0.8])
        out = run_active(records, P_GENERAL, 2.0, "identity")
        np.testing.assert_allclose(out.h, [1.0, 1.0])
        assert out.values[0] == pytest.approx(0.04)
        assert out.values[1] == 1.0

    def test_aux_domain_error_names_id(self):
        hs = HypothesisSet([0.5, 1.5], [0.5, 0.5], ids=["ok", "bad"])
        with pytest.raises(DomainError, match="bad"):
            run_active(hs, P_INDEPENDENT, 1.0, "log_inverse")


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
        assert out.to_csv().splitlines()[1].startswith("c,")
        # all reports the exact p-values, whatever the seed
        np.testing.assert_array_equal(out.values, [0.1, 0.2, 0.3])
        other = run_method(hs, MethodSpec("all"), mode=P_INDEPENDENT, n_b=3.0, seed=10)
        assert other.to_csv() == out.to_csv()

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


@pytest.mark.parametrize("method", ["active", "active-xu", "xu", "all"])
@pytest.mark.parametrize("n_b", [float("nan"), float("inf"), 0.0, -1.0, "10"])
def test_budget_checked_for_every_method(method, n_b):
    records, calls = counted_records([1.0] * 4, [1.0] * 4)
    with pytest.raises(DomainError,
                       match=f"^{re.escape(f'budget must lie in (0, inf), got {n_b!r}')}$"):
        run_method(records, MethodSpec(method), mode=E_VALUES, n_b=n_b, utility="log1p")
    assert calls["n"] == 0


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

    @pytest.mark.parametrize("method", ["random", "all"])
    def test_full_subset_takes_no_draw(self, monkeypatch, method):
        monkeypatch.setattr(engine, "uniforms", lambda *args: pytest.fail("drew"))
        hs = HypothesisSet(aux=[0.5] * 3, exact=np.array([0.1, 0.2, 0.3]))
        out = run_method(hs, MethodSpec(method), mode=P_GENERAL, n_b=3.0, seed=3)
        assert out.queried.all() and out.queried.dtype == bool
        np.testing.assert_array_equal(out.h, np.ones(3))

    def test_carries_ids_and_mode(self):
        hs = HypothesisSet(aux=[0.5, 0.5], exact=np.array([0.1, 0.2]), ids=["x", "y"])
        out = run_method(hs, MethodSpec("random"), mode=P_GENERAL, n_b=1.0, seed=3)
        assert out.ids == ["x", "y"]
        # the queried row reports its exact p-value, the other 1
        np.testing.assert_array_equal(out.values, np.where(out.queried, [0.1, 0.2], 1.0))

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

    @pytest.mark.parametrize("n, n_b, seed, rep", [
        (1, 0, 1, 0), (1, 1, 1, 0), (7, 0, 2, 3), (7, 7, 2, 3), (7, 3, 5, 1),
        (50, 49, 8, 0), (200, 20, 42, 7), (2000, 100, 42, 199),
    ])
    def test_subset_matches_swap_reference(self, n, n_b, seed, rep):
        np.testing.assert_array_equal(_random_subset(n, float(n_b), seed, rep),
                                      swap_reference(n, n_b, seed, rep))

    @given(n=st.integers(1, 60), seed=st.integers(0, 2**64 - 1), rep=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_subset_matches_swap_reference_for_every_budget(self, n, seed, rep):
        for n_b in range(n + 1):
            np.testing.assert_array_equal(_random_subset(n, float(n_b), seed, rep),
                                          swap_reference(n, n_b, seed, rep))

    @given(n=st.integers(1, 5000), fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1),
           rep=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_subset_matches_stable_argsort_version(self, n, fraction, seed, rep):
        for n_b in {0, 1, n, int(fraction * n)}:
            np.testing.assert_array_equal(_random_subset(n, float(n_b), seed, rep),
                                          stable_argsort_subset(n, n_b, seed, rep))

    def test_non_integer_budget_rejected(self):
        records, _ = counted_records([1.0] * 4, [1.0] * 4)
        with pytest.raises(DomainError):
            run_random(records, n_b=1.5, seed=1)

    @pytest.mark.parametrize("n_b", [float("nan"), float("inf"), float("-inf"), 1e400])
    def test_non_finite_budget_rejected(self, n_b):
        records, calls = counted_records([1.0] * 4, [1.0] * 4)
        with pytest.raises(DomainError, match=f"budget must be a whole number >= 0, got {n_b!r}"):
            run_random(records, n_b=n_b, seed=1)
        assert calls["n"] == 0

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
        # an aux outside its mode's domain is no probability's input
        for aux, mode, bad, i in [([np.nan, -1.0, 2.0], P_GENERAL, "nan", 0),
                                  ([0.5, 2.0], P_INDEPENDENT, "2.0", 1),
                                  ([1.0, -1.0], E_VALUES, "-1.0", 1),
                                  ([np.inf], E_VALUES, "inf", 0)]:
            rule = "be finite and >= 0" if mode.is_e else r"lie in \[0, 1\]"
            with pytest.raises(DomainError, match=f"^aux {mode.kind[0]}-values must {rule}, "
                                                  f"got {bad} at index {i}$"):
                xu_query_prob(np.array(aux), 0.5, mode)

    def test_subnormal_aux_has_probability_zero_without_a_warning(self):
        # the test suite turns warnings into errors
        assert xu_query_prob(np.array([5e-324, 1e-310]), 0.5, E_VALUES).tolist() == [0.0, 0.0]

    def test_e_mode_no_query_reports_aux(self):
        # aux below beta: query probability 0
        records, calls = counted_records([0.4], [100.0])
        out = run_xu(records, beta=0.5, mode=E_VALUES)
        assert not out.queried[0]
        assert out.values[0] == 0.4
        assert calls["n"] == 0

    def test_e_mode_query_scales_exact(self):
        # query probability 1 - 0.5 / 2 = 0.75 on every row, against the set's own draws
        exact = np.arange(1.0, 9.0)
        records, _ = counted_records([2.0] * 8, exact)
        out = run_xu(records, beta=0.5, mode=E_VALUES)
        queried = uniforms(DEFAULT_SEED, 0, records.stream_keys(), QUERY_DRAW) < 0.75
        assert queried.any()
        np.testing.assert_array_equal(out.queried, queried)
        np.testing.assert_array_equal(out.values, np.where(queried, 0.5 * exact, 2.0))

    def test_p_mode_query_example(self):
        # aux 0: query probability 1
        records, _ = counted_records([0.0], [0.01])
        out = run_xu(records, beta=0.5, mode=P_INDEPENDENT)
        assert out.queried[0]
        assert out.values[0] == pytest.approx(0.02)

    def test_p_mode_query_clamped(self):
        records, _ = counted_records([0.0], [0.9])
        out = run_xu(records, beta=0.5, mode=P_INDEPENDENT)
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
        out = run_active_xu(records, beta=0.5, mode=E_VALUES, n_b=1.0)
        np.testing.assert_allclose(out.h, [0.4, 0.6])

    def test_p_mode_allocation_example(self):
        records, _ = counted_records([0.0, 1.0], [0.5, 0.5])
        out = run_active_xu(records, beta=0.5, mode=P_GENERAL, n_b=1.0)
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
            utility="log1p",
        )
        assert out.n_queries == calls["n"]
        assert out.n_queries == int(np.count_nonzero(out.queried))
        assert max(calls["per"]) <= 1

    def test_generator_exact_read_alike_by_every_run(self):
        hs = HypothesisSet([1.0, 2.0, 3.0], (v for v in [4.0, 5.0, 6.0]),
                           ids=(f"h{i}" for i in range(3)))
        assert hs.ids == ("h0", "h1", "h2")
        first, second = run_all(hs), run_all(hs)
        np.testing.assert_array_equal(first.values, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(second.values, first.values)

    @pytest.mark.parametrize("exact", [np.ones(2), np.ones((3, 1)), [1.0, 1.0], (1.0,) * 4],
                             ids=["short array", "2-d array", "short list", "long tuple"])
    def test_misaligned_exact_rejected_at_construction(self, exact):
        with pytest.raises(DomainError, match="exact values must align with aux"):
            HypothesisSet([1.0, 2.0, 3.0], exact)

    @pytest.mark.parametrize("aux, exact, column", [
        ([4.0, 4.0], [2.0, lambda: 2.0], "exact"),
        ([4.0, 4.0], [2.0, "n/a"], "exact"),
        ([4.0, 4.0], 2.0, "exact"),
        (["x", "y"], [1.0, 2.0], "aux"),
    ], ids=["per-record callable", "text", "scalar", "text aux"])
    def test_non_number_exact_refused_at_construction(self, aux, exact, column):
        with pytest.raises(DomainError, match=f"^{column} must be numbers: "):
            HypothesisSet(aux, exact, ids=["fine", "broken"])

    @pytest.mark.parametrize("method", ["active", "active-xu", "xu", "random", "all"])
    def test_index_callable_read_once_ascending(self, method):
        calls = []

        def exact(idx):
            calls.append(idx.tolist())
            return np.full(idx.size, 2.0)

        aux = np.linspace(1.0, 5.0, 50)
        out = run_method(HypothesisSet(aux, exact), MethodSpec(method), mode=E_VALUES,
                         n_b=10, seed=3, utility="log1p")
        assert len(calls) == 1
        assert all(a < b for a, b in zip(calls[0], calls[0][1:]))
        assert len(calls[0]) == out.n_queries == int(np.count_nonzero(out.queried)) > 0

    def test_index_callable_not_called_when_nothing_queried(self):
        def exact(idx):
            raise AssertionError("nothing is queried")

        # aux at or below beta: query probability 0 on every row
        aux = np.array([0.1, 0.25, 0.5])
        out = run_xu(HypothesisSet(aux, exact), beta=0.5, mode=E_VALUES)
        assert out.n_queries == 0
        np.testing.assert_array_equal(out.values, aux)

    def test_index_callable_must_return_one_value_per_index(self):
        hs = HypothesisSet([1.0, 2.0], lambda idx: [1.0])
        with pytest.raises(DomainError, match="one value per index"):
            run_all(hs)


class TestBudgetAdherence:
    def test_mean_and_tail_over_200_reps(self):
        rng = np.random.default_rng(37)
        n, n_b = 500, 50
        aux = rng.exponential(size=n)
        records = HypothesisSet(aux, np.ones(n), ids=[f"g{i}" for i in range(n)])
        counts = []
        expected = None
        for rep in range(200):
            out = run_active(records, E_VALUES, float(n_b), "log1p",
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
                return run_active(hs, E_VALUES, 20.0, "log1p", seed=47, rep=2)
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

    def test_duplicate_id_named_with_both_indices(self):
        with pytest.raises(DomainError, match=r"'b' at indices 1 and 3"):
            HypothesisSet([1.0] * 4, [1.0] * 4, ids=["a", "b", "c", "b"])

    @pytest.mark.parametrize("ids", [["a", "a"], [1, "1"]], ids=["same", "same-text"])
    def test_unique_ids_refuse_repeats(self, ids):
        with pytest.raises(DomainError, match=r"'[a1]' at indices 0 and 1"):
            UniqueIds(ids)
        with pytest.raises(DomainError, match=r"'[a1]' at indices 0 and 1"):
            HypothesisSet([1.0, 1.0], [1.0, 1.0], ids=ids)

    def test_unique_ids_taken_as_given(self):
        ids = UniqueIds([7, "b"])
        assert ids == ("7", "b") and type(ids) is UniqueIds
        assert UniqueIds(ids) is ids
        assert HypothesisSet([1.0, 1.0], [1.0, 1.0], ids=ids).ids is ids
        plain = HypothesisSet([1.0, 1.0], [1.0, 1.0], ids=["a", "b"]).ids
        assert type(plain) is UniqueIds and plain == ("a", "b")

    @pytest.mark.parametrize("ids", [["a", "a"], UniqueIds(["a", "b"]), iter(["a", "a"])],
                             ids=["list", "unique", "generator"])
    def test_id_count_checked_before_repeats(self, ids):
        with pytest.raises(DomainError, match="ids must align with aux"):
            HypothesisSet([1.0] * 3, [1.0] * 3, ids=ids)

    def test_bad_aux_printed_as_plain_float(self):
        hs = HypothesisSet([0.5, np.nan], [0.5, 0.5], ids=["a", "b"])
        want = r"^aux p-values must lie in \[0, 1\], got nan at id 'b'$"
        with pytest.raises(DomainError, match=want):
            run_method(hs, MethodSpec("all"), mode=P_INDEPENDENT, n_b=2.0)

    @pytest.mark.parametrize("u, at", [([-0.5] * 3, 0), ([0.5, np.nan, 0.5], 1),
                                       ([0.5, 0.5, 1.0], 2), ([2.0] * 3, 0)],
                             ids=[f"{case}-active_values"
                                  for case in ("negative", "nan", "one", "above-one")])
    def test_draws_outside_unit_interval_refused(self, u, at):
        hs = HypothesisSet([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        match = rf"branch draw u must lie in \[0, 1\), got .+ at position {at}$"
        with pytest.raises(DomainError, match=match):
            active_values(np.full(3, 0.5), u, hs.exact_at, P_INDEPENDENT, 0.5)

    @pytest.mark.parametrize("method", engine.METHOD_NAMES)
    def test_budget_above_n_refused_before_any_read(self, method):
        records, calls = counted_records([1.0, 2.0], [1.0, 1.0])
        refusals = [(2.5, "budget must lie in [0, 2], got 2.5")]
        if method == "random":  # a whole number, so n + 0.5 is refused as not whole
            refusals = [(2.5, "budget must be a whole number >= 0, got 2.5"),
                        (3, "budget must lie in [0, 2], got 3")]
        for n_b, message in refusals:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                run_method(records, MethodSpec(method), mode=E_VALUES, n_b=n_b, utility="log1p")
        assert calls["n"] == 0
        out = run_method(records, MethodSpec(method), mode=E_VALUES, n_b=2.0, utility="log1p")
        assert out.n_queries == calls["n"]

    def test_to_csv_shape(self):
        # levels 0 and 1: the first row is never queried, the second always
        records, _ = counted_records([0.0, 2.0], [3.0, 4.0])
        out = run_active(records, E_VALUES, 1.0, "identity")
        lines = out.to_csv().strip().split("\n")
        assert lines[0] == "id,value,queried,branch,h"
        assert len(lines) == 3
        assert lines[1].startswith("h0,") and ",false,no_query," in lines[1]
        assert lines[2].startswith("h1,") and ",true,query," in lines[2]
        # a leading text is the text before the column line
        lead = "# activetest\n# key = a,b\n"
        assert out.to_csv(lead) == lead + out.to_csv()
        # a set without ids writes the row numbers
        plain = run_method(HypothesisSet([1.0, 2.0, 3.0], [3.0, 4.0, 5.0]), MethodSpec("all"),
                           mode=E_VALUES, n_b=1.0)
        assert [line.split(",")[0] for line in plain.to_csv().splitlines()[1:]] == ["0", "1", "2"]

    def test_method_spec_validation(self):
        with pytest.raises(DomainError):
            MethodSpec("bogus")
        for variant in ("active", "xu"):
            with pytest.raises(DomainError, match=r"^beta must lie in \(0, 1\), got '0\.5'"):
                MethodSpec(variant, beta="0.5")
        assert MethodSpec("xu", beta=np.float64(0.25)).beta == 0.25

    def test_run_method_requires_utility_for_active(self):
        records, _ = counted_records([1.0], [1.0])
        with pytest.raises(DomainError, match="utility"):
            run_method(records, MethodSpec("active"), mode=E_VALUES, n_b=1.0)

    def test_run_method_uses_fallback_utility(self):
        records, _ = counted_records([1.0, 3.0], [1.0, 1.0])
        out = run_method(
            records, MethodSpec("active"), mode=E_VALUES, n_b=1.0,
            utility="identity",
        )
        np.testing.assert_allclose(out.h, [0.25, 0.75])


class TestSetMemo:
    """A set reused across runs gives what a fresh set gives, run for run."""

    RUNS = [  # (method, beta, mode, n_b, seed, rep, utility)
        ("active", 0.5, P_INDEPENDENT, 5.0, 1, 0, "log_inverse"),
        ("active-xu", 0.5, P_INDEPENDENT, 5.0, 1, 0, "log_inverse"),
        ("xu", 0.5, P_INDEPENDENT, 5.0, 1, 0, "log_inverse"),
        ("random", 0.5, P_INDEPENDENT, 5.0, 1, 0, "log_inverse"),
        ("active", 0.5, E_VALUES, 5.0, 2, 0, "log1p"),
        ("active-xu", 0.3, E_VALUES, 5.0, 2, 0, None),
        ("all", 0.5, P_GENERAL, 5.0, 2, 0, None),
        ("active", 0.5, P_GENERAL, 9.0, 1, 0, "log1p"),
        ("active", 0.5, P_GENERAL, 9.0, 1, 0, "inverse"),
        ("active-xu", 0.3, P_GENERAL, 9.0, 1, 1, None),
        ("active-xu", 0.3, E_VALUES, 9.0, 1, 1, None),
        ("xu", 0.3, E_VALUES, 9.0, 1, 1, None),
        ("active", 0.5, P_INDEPENDENT, 5.0, 1, 1, "log_inverse"),
        ("active-xu", 0.5, P_INDEPENDENT, 5.0, 1, 0, None),
        ("active-xu", 0.3, P_INDEPENDENT, 5.0, 1, 0, None),
        ("random", 0.5, E_VALUES, 9.0, 2, 1, "identity"),
        ("active", 0.5, P_INDEPENDENT, 5.0, 1, 0, "log_inverse"),
    ]

    @staticmethod
    def make_set():
        aux = uniforms(4, 0, np.arange(40, dtype=np.uint64), 0)
        exact = uniforms(4, 1, np.arange(40, dtype=np.uint64), 0)
        return HypothesisSet(aux, exact, ids=[f"r{i}" for i in range(40)])

    @staticmethod
    def run(hs, method, beta, mode, n_b, seed, rep, utility="log_inverse"):
        return run_method(hs, MethodSpec(method, beta=beta), mode=mode, n_b=n_b, seed=seed,
                          rep=rep, utility=utility)

    def test_reused_set_equals_fresh_sets(self):
        reused = self.make_set()
        for args in self.RUNS:
            got, want = self.run(reused, *args), self.run(self.make_set(), *args)
            for name in ("method", "n_queries", "source_ids"):
                assert getattr(got, name) == getattr(want, name), (args, name)
            for name in ("values", "queried", "h"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert (got.allocation is None) == (want.allocation is None)
            if got.allocation is not None:
                np.testing.assert_array_equal(got.allocation.h, want.allocation.h)
                assert got.allocation.expected_queries == want.allocation.expected_queries
                assert got.allocation.clamp_count == want.allocation.clamp_count
            assert got.to_csv() == want.to_csv()

    def test_threads_sharing_a_set_get_fresh_set_results(self):
        runs = self.RUNS * 6
        want = [self.run(self.make_set(), *args).to_csv() for args in runs]
        shared = self.make_set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda args: self.run(shared, *args).to_csv(), args)
                           for args in runs]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_aux_is_read_only(self):
        given_aux = np.array([0.1, 0.2])
        hs = HypothesisSet(given_aux, [0.3, 0.4])
        with pytest.raises(ValueError):
            hs.aux[0] = 0.9
        given_aux[0] = 0.9
        assert hs.aux[0] == 0.1

    def test_set_copies_caller_exact(self):
        given_exact = np.array([0.3, 0.4])
        hs = HypothesisSet([0.1, 0.2], given_exact)
        given_exact[0] = 0.9
        np.testing.assert_array_equal(hs.exact_at(np.arange(2)), [0.3, 0.4])
        # a read-only column is held as it is
        assert HypothesisSet(hs.aux, hs._exact)._exact is hs._exact

    @pytest.mark.parametrize("method", ["active", "active-xu"])
    def test_memoized_levels_are_read_only(self, method):
        hs = self.make_set()
        first = self.run(hs, method, 0.5, P_INDEPENDENT, 5.0, 1, 0)
        again = self.run(hs, method, 0.5, P_INDEPENDENT, 5.0, 2, 0)
        assert again.h is first.h
        for h in (again.h, again.allocation.h):
            with pytest.raises(ValueError):
                h[0] = 1.0

    @pytest.mark.parametrize("method", ["active", "active-xu"])
    def test_budget_above_n_refused_on_every_run(self, method):
        hs = self.make_set()
        for seed in (1, 1, 2):
            with pytest.raises(DomainError, match=r"^budget must lie in \[0, 40\], got 40\.5$"):
                self.run(hs, method, 0.5, P_INDEPENDENT, 40.5, seed, 0)
        assert method not in hs._memo
        args = (method, 0.5, P_INDEPENDENT, 40.0, 1, 0)
        assert self.run(hs, *args).to_csv() == self.run(self.make_set(), *args).to_csv()


class TestSetMemoBounds:
    """The set keeps one levels entry per active variant and at most one plan."""

    def test_budgets_a_a_b_b_a_keep_one_levels_entry_and_at_most_one_plan(self):
        hs = TestSetMemo.make_set()
        variants = ("active", "active-xu")
        for step, n_b in enumerate((5.0, 5.0, 9.0, 9.0, 5.0)):
            for variant in variants:
                args = (variant, 0.5, P_INDEPENDENT, n_b, step, 0)
                got = TestSetMemo.run(hs, *args)
                assert got.to_csv() == TestSetMemo.run(TestSetMemo.make_set(), *args).to_csv()
            # a plan is kept from the second run of the same levels on, and
            # dropped when they change
            plans = {("plan", v) for v in variants} if step in (1, 3) else set()
            assert set(hs._memo) == {"keys", "aux", "draws", *variants, *plans}

    def test_plan_made_while_the_levels_change_is_not_paired_with_them(self, monkeypatch):
        # replays one interleaving of two threads: a second run of budget 5
        # makes its plan while another run moves the levels to budget 9
        hs = TestSetMemo.make_set()
        original = engine._active_plan
        pending = [9.0]

        def interleaved(h, mode, beta):
            if pending:
                TestSetMemo.run(hs, "active", 0.5, P_INDEPENDENT, pending.pop(), 1, 0)
            return original(h, mode, beta)

        TestSetMemo.run(hs, "active", 0.5, P_INDEPENDENT, 5.0, 1, 0)
        monkeypatch.setattr(engine, "_active_plan", interleaved)
        TestSetMemo.run(hs, "active", 0.5, P_INDEPENDENT, 5.0, 1, 0)
        assert not pending
        args = ("active", 0.5, P_INDEPENDENT, 9.0, 2, 0)
        got = TestSetMemo.run(hs, *args)
        assert got.to_csv() == TestSetMemo.run(TestSetMemo.make_set(), *args).to_csv()


@pytest.mark.parametrize("method", ["active-xu", "xu", "random", "all"])
def test_unknown_utility_refused_for_every_method(method):
    records, calls = counted_records([0.5] * 4, [0.5] * 4)
    message = ("utility family must be one of ('identity', 'log1p', 'inverse', 'log_inverse'), "
               "got 'cubic'")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_method(records, MethodSpec(method), mode=P_INDEPENDENT, n_b=2.0, utility="cubic")
    assert calls["n"] == 0


class TestCsvText:
    IDS = ["plain", "a,1", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nx", "", " pad ",
           "tab\there", "\u00e9\u2028"]

    def test_fields_quoted_like_csv_writer(self):
        values = np.linspace(0.0, 1.0, len(self.IDS))
        flags = values > 0.5

        def excel_row(row):
            # the default dialect quotes "," '"' "\r" "\n"; drop its "\r\n" row end
            buf = io.StringIO()
            csv.writer(buf).writerow(row)
            return buf.getvalue()[:-2] + "\n"

        rows = zip(self.IDS, values.tolist(), ["true" if f else "false" for f in flags])
        want = "id,v,f\n" + "".join(map(excel_row, rows))
        assert csv_text("id,v,f\n", [self.IDS, values, flags]) == want

    def test_read_back_with_csv_reader(self):
        text = csv_text("id,i\n", [self.IDS, np.arange(len(self.IDS))])
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["id", "i"]
        assert rows[1:] == [[hid, str(i)] for i, hid in enumerate(self.IDS)]

    def test_plain_columns_written_as_is(self):
        text = csv_text("k,p\n", [("x", "y"), np.array([0.1, 1.0])])
        assert text == "k,p\nx,0.1\ny,1.0\n"

    @pytest.mark.parametrize("columns, lengths", [
        ([["x", "y"], np.array([0.1])], (2, 1)),
        ([np.arange(2), np.array([True, False, True])], (2, 3)),
    ], ids=["text-float", "int-bool"])
    def test_unequal_lengths_refused(self, columns, lengths):
        with pytest.raises(ValueError, match=r"^columns must have equal lengths, got %d and %d$"
                           % lengths):
            csv_text("a,b\n", columns)

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"], ids=["comma", "quote", "cr", "lf"])
    def test_each_quoted_char_alone_quotes_its_field(self, char):
        field = f"x{char}y"
        want = 'k\nplain\n"' + field.replace('"', '""') + '"\n'
        assert csv_text("k\n", [["plain", field]]) == want

    def test_many_rows_match_per_row_format(self):
        n = 40_000  # past one join block
        rng = np.random.default_rng(5)
        ids = [f"h{i}" for i in range(n)]
        values, flags = rng.uniform(size=n), rng.uniform(size=n) < 0.3
        want = "".join(f"{ids[i]},{float(values[i])!r},{'true' if flags[i] else 'false'}\n"
                       for i in range(n))
        assert csv_text("", [ids, values, flags]) == want
