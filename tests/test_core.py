import re
import warnings

import numpy as np
import pytest

from activetest.core import (
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    ActiveOutcome,
    StatMode,
    active_e,
    active_p,
    active_values,
    check_beta,
)
from activetest.errors import DomainError

from conftest import (
    E_H_FNS,
    E_SAMPLERS,
    P_SAMPLERS,
    S_GRID,
    dominance_check,
    mc_evalue_validity,
    mc_pvalue_superuniformity,
)


class CountingStat:
    """Exact-statistic stand-in that records how often it is evaluated."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


class TestActiveE:
    def test_query_branch_example(self):
        out = active_e(2.0, 0.5, beta=0.5, u=0.3)
        assert out.value == 2.0
        assert out.queried
        # at exact 1.0 the value is the query scale
        assert active_e(1.0, 0.5, beta=0.5, u=0.3).value == 1.0

    def test_no_query_branch_example(self):
        exact = CountingStat(123.0)
        out = active_e(exact, 0.5, beta=0.5, u=0.7)
        assert out.value == 1.0
        assert not out.queried
        assert exact.calls == 0

    def test_asymmetric_beta_example(self):
        out = active_e(3.0, 0.25, beta=0.4, u=0.1)
        assert out.queried
        assert out.value == (1.0 - 0.4) / 0.25 * 3.0
        assert out.value == pytest.approx(7.2)

    def test_near_zero_level_overflows_to_inf_not_nan(self):
        # only a replayed draw of 0 queries a subnormal level
        out = active_e(0.0, 5e-324, beta=0.5, u=0.0)
        assert out.queried and out.value == 0.0
        assert active_e(1.0, 5e-324, beta=0.5, u=0.0).value == np.inf
        out = active_e(2.0, 2.225073858507203e-309, beta=0.75, u=0.0)
        assert out.value == np.inf
        assert np.isfinite(active_e(1.0, 2.225073858507203e-309, beta=0.75, u=0.0).value)

    def test_h_zero_never_queries(self):
        exact = CountingStat(50.0)
        for u in (0.0, 0.5, 0.999):
            out = active_e(exact, 0.0, beta=0.3, u=u)
            assert not out.queried
            assert out.value == 0.3
        assert exact.calls == 0

    def test_h_above_one_always_queries_with_shrunk_scale(self):
        out = active_e(2.0, 2.5, beta=0.5, u=0.99)
        assert out.queried
        assert active_e(1.0, 2.5, beta=0.5, u=0.99).value == 0.5 / 2.5
        assert out.value == (0.5 / 2.5) * 2.0

    def test_no_query_value_full_precision(self):
        for beta in (0.1, 0.5, 0.9):
            for h in (0.05, 0.3, 0.61, 0.99):
                out = active_e(1.0, h, beta=beta, u=0.9999)
                if not out.queried:
                    assert out.value == beta / (1.0 - h)

    def test_scale_times_query_prob_bounded(self):
        for beta in (0.1, 0.5, 0.9):
            for h in (0.05, 0.3, 0.61, 0.99, 1.0, 1.7, 4.0):
                # at exact 1.0 the value is the query scale
                out = active_e(1.0, h, beta=beta, u=0.0)
                assert out.queried
                assert out.value * min(1.0, h) <= (1.0 - beta) * (1.0 + 1e-12)

    def test_lazy_called_exactly_once_on_query(self):
        exact = CountingStat(2.0)
        out = active_e(exact, 0.9, beta=0.5, u=0.1)
        assert out.queried
        assert exact.calls == 1

    def test_negative_exact_rejected(self):
        with pytest.raises(DomainError):
            active_e(-1.0, 0.9, beta=0.5, u=0.1)

    def test_nan_exact_rejected(self):
        with pytest.raises(DomainError):
            active_e(float("nan"), 0.9, beta=0.5, u=0.1)

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5])
    def test_branch_draw_domain(self, u):
        with pytest.raises(DomainError):
            active_e(1.0, 0.5, beta=0.5, u=u)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.3, float("nan"), "0.5", None])
    def test_beta_domain(self, beta):
        with pytest.raises(DomainError):
            active_e(1.0, 0.5, beta=beta, u=0.1)


class TestActiveP:
    def test_independent_query_example(self):
        out = active_p(0.01, 0.5, beta=0.5, mode=P_INDEPENDENT, u=0.2)
        assert out.queried
        assert out.value == 0.01
        # below the cap at 1, the value is the query scale times the exact p
        assert active_p(0.25, 0.5, beta=0.5, mode=P_INDEPENDENT, u=0.2).value == 0.25

    def test_general_query_example(self):
        out = active_p(0.01, 0.5, beta=0.5, mode=P_GENERAL, u=0.2)
        assert out.queried
        assert out.value == 0.02
        assert active_p(0.25, 0.5, beta=0.5, mode=P_GENERAL, u=0.2).value == 2.0 * 0.25

    def test_no_query_example(self):
        out = active_p(CountingStat(0.5), 0.8, beta=0.5, mode=P_INDEPENDENT, u=0.9)
        assert not out.queried
        assert out.value == min(1.0, (1.0 - 0.8) / 0.5)
        assert out.value == pytest.approx(0.4)

    def test_h_zero_reports_one(self):
        exact = CountingStat(0.001)
        out = active_p(exact, 0.0, beta=0.5, mode=P_GENERAL, u=0.7)
        assert not out.queried
        assert out.value == 1.0
        assert exact.calls == 0

    def test_query_output_clamped_at_one(self):
        out = active_p(0.9, 0.99, beta=0.5, mode=P_GENERAL, u=0.0)
        assert out.queried
        assert out.value == 1.0

    def test_e_mode_rejected(self):
        with pytest.raises(DomainError):
            active_p(0.5, 0.5, beta=0.5, mode=E_VALUES, u=0.1)

    def test_exact_above_one_rejected(self):
        with pytest.raises(DomainError):
            active_p(1.5, 0.9, beta=0.5, mode=P_INDEPENDENT, u=0.0)

    def test_outputs_stay_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            h = float(rng.uniform(0, 2.0))
            p = float(rng.uniform())
            u = float(rng.uniform())
            mode = P_INDEPENDENT if rng.uniform() < 0.5 else P_GENERAL
            out = active_p(p, h, beta=0.5, mode=mode, u=u)
            assert 0.0 <= out.value <= 1.0


class TestVectorizedAgreement:
    @pytest.mark.parametrize("mode", [E_VALUES, P_INDEPENDENT, P_GENERAL])
    def test_matches_scalar_ops(self, mode):
        rng = np.random.default_rng(11)
        n = 300
        h = rng.uniform(0, 1.6, size=n)
        h[rng.integers(0, n, size=10)] = 0.0
        u = rng.uniform(size=n)
        exact = rng.uniform(size=n) if mode.is_p else rng.exponential(size=n)
        beta = 0.35

        values, queried = active_values(h, u, lambda idx: exact[idx], mode, beta)
        for i in range(n):
            if mode.is_e:
                out = active_e(exact[i], h[i], beta=beta, u=u[i])
            else:
                out = active_p(exact[i], h[i], beta=beta, mode=mode, u=u[i])
            assert values[i] == out.value
            assert queried[i] == out.queried

    @pytest.mark.parametrize("mode", [E_VALUES, P_INDEPENDENT, P_GENERAL])
    def test_matches_masked_no_query_fill_at_edge_levels(self, mode):
        # h = 0, h = 1 and h > 1, on replayed draws that include 0; the no-query
        # formula, formed over every row, divides by zero at h = 1 in e-mode
        h = np.array([0.0, 0.0, 1.0, 1.0, 1.5, 1e300, 0.3, 0.3, 1e-310, 0.999999])
        u = np.array([0.0, 0.5, 0.0, 0.99, 0.0, 0.5, 0.0, 0.7, 0.0, 0.9999999])
        exact = np.linspace(0.0, 0.9, h.size)
        beta = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, queried = active_values(h, u, lambda idx: exact[idx], mode, beta)
        want_queried = u < np.minimum(1.0, h)
        no_query = ~want_queried
        want = np.empty_like(h)
        want_scales = np.zeros_like(h)
        with np.errstate(over="ignore"):
            if mode.is_e:
                want[no_query] = beta / (1.0 - h[no_query])
                want_scales[want_queried] = (1.0 - beta) / h[want_queried]
            else:
                want[no_query] = np.minimum(1.0, (1.0 - h[no_query]) / beta)
                top = h[want_queried] if mode.kind == "p_independent" else 1.0
                want_scales[want_queried] = top / (1.0 - beta)
        with np.errstate(invalid="ignore"):
            out = want_scales[want_queried] * exact[want_queried]
        want[want_queried] = (np.minimum(1.0, out) if mode.is_p
                              else np.where(np.isnan(out), 0.0, out))
        np.testing.assert_array_equal(queried, want_queried)
        assert queried[h >= 1.0].all()
        assert values.tobytes() == want.tobytes()

    def test_fetch_receives_query_indices_only(self):
        h = np.array([0.0, 0.9, 0.2, 1.5, 0.7])
        u = np.array([0.5, 0.3, 0.6, 0.99, 0.1])
        seen = []

        def fetch(idx):
            seen.append(np.array(idx))
            return np.ones(len(idx))

        _, queried = active_values(h, u, fetch, E_VALUES, 0.5)
        np.testing.assert_array_equal(queried, [False, True, False, True, True])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [1, 3, 4])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DomainError):
            active_values(np.ones(3), np.ones(2) * 0.5, lambda i: np.ones(len(i)), E_VALUES, 0.5)

    def test_bad_exact_reported_with_index(self):
        h = np.array([0.9, 0.9, 0.9])
        u = np.zeros(3)
        exact = np.array([1.0, -2.0, 1.0])
        with pytest.raises(DomainError, match="index 1"):
            active_values(h, u, lambda idx: exact[idx], E_VALUES, 0.5)


class TestMcEvalueValidity:
    def test_degenerate_identity_at_matched_h(self):
        # with h = 1 - beta both branch values are exactly 1
        sampler = lambda n, seed: (np.full(n, 3.0), np.ones(n))
        mean, se = mc_evalue_validity(sampler, lambda a: np.full_like(a, 0.5), 0.5, 20_000, seed=3)
        assert mean == 1.0

    def test_degenerate_identity_other_h(self):
        sampler = lambda n, seed: (np.full(n, 3.0), np.ones(n))
        mean, se = mc_evalue_validity(sampler, lambda a: np.full_like(a, 0.37), 0.5, 100_000, seed=4)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_always_query_mean_is_one_minus_beta(self):
        sampler = lambda n, seed: (np.full(n, 2.0), np.ones(n))
        mean, _ = mc_evalue_validity(sampler, lambda a: np.ones_like(a), 0.4, 20_000, seed=5)
        assert mean == pytest.approx(1.0 - 0.4, abs=1e-15)

    def test_lognormal_independent_battery_entry(self):
        mean, se = mc_evalue_validity(
            E_SAMPLERS["independent"], E_H_FNS["saturating"], 0.5, 100_000, seed=7
        )
        assert mean <= 1.0 + 3.0 * se

    def test_deterministic_in_seed(self):
        a = mc_evalue_validity(E_SAMPLERS["noisy"], E_H_FNS["constant"], 0.5, 20_000, seed=9)
        b = mc_evalue_validity(E_SAMPLERS["noisy"], E_H_FNS["constant"], 0.5, 20_000, seed=9)
        assert a == b


class TestMcPvalueSuperuniformity:
    def test_uniform_independent_example(self):
        ecdf, se = mc_pvalue_superuniformity(
            P_SAMPLERS["independent"],
            lambda a: 1.0 - a,
            0.5,
            P_INDEPENDENT,
            (0.01, 0.05, 0.1, 0.5, 1.0),
            100_000,
            seed=11,
        )
        levels = np.array([0.01, 0.05, 0.1, 0.5, 1.0])
        assert np.all(ecdf <= levels + 3.0 * se)

    def test_maximally_null_exact_p_one(self):
        sampler = lambda n, seed: (np.full(n, 0.5), np.ones(n))
        ecdf, se = mc_pvalue_superuniformity(
            sampler,
            lambda a: np.full_like(a, 0.8),
            0.5,
            P_INDEPENDENT,
            (0.25, 0.5, 1.0),
            50_000,
            seed=13,
        )
        # no-query value is (1-0.8)/0.5 = 0.4, query value min(1, 1.6) = 1
        assert ecdf[0] == 0.0
        assert abs(ecdf[1] - 0.2) <= 3.0 * se[1] + 1e-12
        assert ecdf[2] == 1.0
        assert np.all(ecdf <= np.array([0.25, 0.5, 1.0]) + 3.0 * se)

    def test_adversarial_coupling_general_mode(self):
        ecdf, se = mc_pvalue_superuniformity(
            P_SAMPLERS["adversarial"],
            lambda a: 1.5 * (1.0 - a),
            0.5,
            P_GENERAL,
            S_GRID,
            100_000,
            seed=17,
        )
        assert np.all(ecdf <= np.array(S_GRID) + 3.0 * se)


class TestDominance:
    def test_constant_candidate_example(self):
        xs = np.linspace(0.0, 5.0, 50)
        beta = 0.5
        cand_a = (xs, np.full_like(xs, beta))
        cand_b = (xs, np.full_like(xs, 1.0 - beta))
        assert dominance_check(cand_a, cand_b, lambda x: np.full_like(x, 0.5), beta)

    def test_canonical_pair_dominates_itself(self):
        xs = np.linspace(0.0, 5.0, 50)
        beta = 0.3
        h_fn = lambda x: 0.2 + 0.6 * x / (1.0 + x)
        h = h_fn(xs)
        cand_a = (xs, beta / (1.0 - h))
        cand_b = (xs, (1.0 - beta) / h)
        assert dominance_check(cand_a, cand_b, h_fn, beta)
        # at a level of 1 a* is +inf, an e-value as in e-BH
        at_one = lambda x: np.where(x == x[-1], 1.0, 0.5)
        cand_a = (xs, np.where(xs == xs[-1], np.inf, beta / 0.5))
        cand_b = (xs, np.where(xs == xs[-1], 1.0 - beta, (1.0 - beta) / 0.5))
        assert dominance_check(cand_a, cand_b, at_one, beta)

    def test_inflated_candidate_rejected_as_invalid(self):
        xs = np.linspace(0.0, 5.0, 50)
        beta = 0.5
        h_fn = lambda x: x / (1.0 + x)
        h = h_fn(xs)
        cand_a = (xs, 1.1 * beta / (1.0 - h))
        cand_b = (xs, (1.0 - beta) / np.maximum(h, 1e-9))
        with pytest.raises(ValueError, match="envelope"):
            dominance_check(cand_a, cand_b, h_fn, beta)

    def test_hundred_random_valid_candidates(self):
        rng = np.random.default_rng(23)
        xs = np.linspace(0.01, 10.0, 64)
        for _ in range(100):
            beta = float(rng.uniform(0.05, 0.95))
            lo, hi = sorted(rng.uniform(0.02, 0.98, size=2))
            h_fn = lambda x, lo=lo, hi=hi: lo + (hi - lo) * x / (1.0 + x)
            h = h_fn(xs)
            fa = rng.uniform(0.01, 1.0, size=xs.size)
            fb = rng.uniform(0.01, 1.0, size=xs.size)
            cand_a = (xs, fa * beta / (1.0 - h))
            cand_b = (xs, fb * (1.0 - beta) / h)
            assert dominance_check(cand_a, cand_b, h_fn, beta)


class TestTypes:
    def test_control_value_clamps_query_prob(self):
        # the query probability of control value h is min(1, h)
        assert active_e(1.0, 0.3, beta=0.5, u=0.2999).queried
        assert not active_e(1.0, 0.3, beta=0.5, u=0.3).queried
        assert active_e(1.0, 2.5, beta=0.5, u=0.9999).queried
        assert not active_e(1.0, 0.0, beta=0.5, u=0.0).queried

    def test_control_value_rejects_negative(self):
        for h in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                active_e(1.0, h, beta=0.5, u=0.1)

    def test_stat_mode_names(self):
        assert StatMode("e") == E_VALUES
        assert StatMode("p_independent") == P_INDEPENDENT
        assert StatMode("p_general") == P_GENERAL
        for name in ("q_value", "p-general", "evalue", "p_gen"):
            with pytest.raises(DomainError, match=re.escape(
                    "statistic mode must be one of ('e', 'p_independent', 'p_general'), "
                    f"got {name!r}")):
                StatMode(name)

    def test_check_beta_passthrough(self):
        assert check_beta(0.5) == 0.5
        assert check_beta(0.25) == 0.25
        assert type(check_beta(np.float32(0.25))) is float

    def test_outcome_branch_labels(self):
        assert ActiveOutcome(1.0, True).queried is True
        assert ActiveOutcome(1.0, False).queried is False
