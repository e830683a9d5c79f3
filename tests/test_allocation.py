import math
import warnings

import numpy as np
import pytest

from activetest.allocation import (
    AllocationResult,
    BudgetConfig,
    UtilitySpec,
    allocate,
    allocate_utilities,
    eval_utility,
)
from activetest.errors import DegenerateUtilitiesError, DomainError


class TestUtilitySpec:
    def test_identity_example(self):
        assert eval_utility(UtilitySpec.identity(), 3.0) == 3.0

    def test_log_inverse_at_zero(self):
        # ln(1 + 1/(0 + 1e-8)) = ln(1 + 1e8)
        got = eval_utility(UtilitySpec.log_inverse(eps=1e-8), 0.0)
        assert got == pytest.approx(math.log(1.0 + 1e8), rel=1e-15)
        assert got == pytest.approx(18.4207, abs=5e-5)

    def test_log1p_at_zero(self):
        assert eval_utility(UtilitySpec.log1p(), 0.0) == 0.0

    def test_inverse_formula(self):
        got = eval_utility(UtilitySpec.inverse(eps=1e-2), 0.23)
        assert got == 1.0 / (0.23 + 1e-2)

    def test_directions(self):
        assert UtilitySpec.identity().direction == "direct"
        assert UtilitySpec.log1p().direction == "direct"
        assert UtilitySpec.inverse().direction == "inverse"
        assert UtilitySpec.log_inverse().direction == "inverse"
        assert UtilitySpec.custom([0, 1], [0, 2]).direction == "direct"
        assert UtilitySpec.custom([0, 1], [2, 0]).direction == "inverse"

    def test_from_name(self):
        assert UtilitySpec.from_name("identity").family == "identity"
        assert UtilitySpec.from_name("log-inverse").family == "log_inverse"
        assert UtilitySpec.from_name("inverse", eps=0.5).eps == 0.5
        with pytest.raises(DomainError):
            UtilitySpec.from_name("cubic")

    def test_eps_must_be_positive(self):
        with pytest.raises(DomainError):
            UtilitySpec.inverse(eps=0.0)
        with pytest.raises(DomainError):
            UtilitySpec.log_inverse(eps=-1e-3)

    def test_custom_interpolation_and_flat_extrapolation(self):
        spec = UtilitySpec.custom([0.0, 1.0, 2.0], [0.0, 10.0, 12.0])
        xs = np.array([0.5, 1.5, 5.0, 0.0])
        np.testing.assert_allclose(eval_utility(spec, xs), [5.0, 11.0, 12.0, 0.0])

    def test_custom_table_validation(self):
        with pytest.raises(DomainError):
            UtilitySpec.custom([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            UtilitySpec.custom([0.0, 1.0], [1.0, -2.0])
        with pytest.raises(DomainError):
            UtilitySpec.custom([0.0, 1.0, 2.0], [0.0, 5.0, 1.0])
        with pytest.raises(DomainError):
            UtilitySpec("identity", table_x=(0.0, 1.0), table_y=(0.0, 1.0))

    def test_negative_aux_rejected_for_direct(self):
        with pytest.raises(DomainError):
            eval_utility(UtilitySpec.identity(), -1.0)
        with pytest.raises(DomainError):
            eval_utility(UtilitySpec.log1p(), np.array([0.5, -0.5]))


class TestAllocate:
    def test_worked_example(self):
        res = allocate_utilities([1.0, 2.0, 3.0], BudgetConfig(3.0, 3))
        np.testing.assert_allclose(res.h, [0.5, 1.0, 1.5])
        assert res.expected_queries == pytest.approx(2.5)
        assert res.clamp_count == 1
        assert res.sum_h_unclamped == pytest.approx(3.0)

    def test_symmetric_example(self):
        res = allocate_utilities([1.0, 1.0, 1.0, 1.0], BudgetConfig(2.0, 4))
        np.testing.assert_allclose(res.h, [0.5, 0.5, 0.5, 0.5])
        assert res.expected_queries == pytest.approx(2.0)
        assert res.clamp_count == 0

    def test_point_mass_example(self):
        res = allocate_utilities([5.0, 0.0, 0.0, 0.0], BudgetConfig(1.0, 4))
        np.testing.assert_allclose(res.h, [1.0, 0.0, 0.0, 0.0])
        assert res.expected_queries == pytest.approx(1.0)

    def test_degenerate_utilities_error_mentions_remedy(self):
        with pytest.raises(DegenerateUtilitiesError, match="log"):
            allocate_utilities([0.0, 0.0], BudgetConfig(1.0, 2))

    def test_budget_identity_large_scale(self):
        rng = np.random.default_rng(31)
        u = rng.exponential(size=200_000) * np.exp(rng.normal(0, 4, size=200_000))
        res = allocate_utilities(u, BudgetConfig(5_000.0, 200_000))
        assert abs(res.sum_h_unclamped - 5_000.0) <= 1e-9 * 5_000.0

    def test_expected_queries_never_exceed_budget(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 400))
            n_b = float(rng.uniform(0.5, n))
            u = rng.exponential(size=n) ** rng.integers(1, 4)
            if u.sum() == 0.0:
                continue
            res = allocate_utilities(u, BudgetConfig(n_b, n))
            assert res.expected_queries <= n_b + 1e-9 * n_b

    def test_clamping_implies_budget_shortfall(self):
        res = allocate_utilities([100.0, 1.0, 1.0, 1.0], BudgetConfig(3.0, 4))
        assert res.clamp_count == 1
        assert res.expected_queries < 3.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        u = rng.exponential(size=1000)
        base = allocate_utilities(u, BudgetConfig(50.0, 1000))
        for c in (1e-7, 0.5, 3.0, 1e9):
            scaled = allocate_utilities(c * u, BudgetConfig(50.0, 1000))
            np.testing.assert_allclose(scaled.h, base.h, rtol=1e-12)

    def test_monotone_allocation_direct_and_inverse(self):
        aux = np.array([0.1, 0.5, 2.0, 9.0])
        direct = allocate(aux, UtilitySpec.log1p(), BudgetConfig(2.0, 4))
        assert np.all(np.diff(direct.h) >= 0.0)
        inverse = allocate(aux / 10.0, UtilitySpec.log_inverse(), BudgetConfig(2.0, 4))
        assert np.all(np.diff(inverse.h) <= 0.0)

    def test_compression_effectiveness_heavy_tail(self):
        aux = np.ones(1000)
        aux[0] = 1e6
        budget = BudgetConfig(100.0, 1000)
        compressed = allocate(aux, UtilitySpec.log1p(), budget)
        raw = allocate(aux, UtilitySpec.identity(), budget)
        assert compressed.expected_queries >= 0.95 * 100.0
        assert raw.expected_queries < 0.15 * 100.0

    def test_query_prob_property(self):
        res = allocate_utilities([1.0, 2.0, 3.0], BudgetConfig(3.0, 3))
        np.testing.assert_allclose(res.query_prob, [0.5, 1.0, 1.0])

    def test_utilities_validated(self):
        with pytest.raises(DomainError):
            allocate_utilities([1.0, np.nan], BudgetConfig(1.0, 2))
        with pytest.raises(DomainError):
            allocate_utilities([1.0, -1.0], BudgetConfig(1.0, 2))
        with pytest.raises(DomainError):
            allocate_utilities([1.0, 2.0], BudgetConfig(1.0, 3))


class TestBudgetConfig:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(DomainError):
            BudgetConfig(0.0, 10)
        with pytest.raises(DomainError):
            BudgetConfig(-5.0, 10)

    def test_rejects_bad_hypothesis_count(self):
        with pytest.raises(DomainError):
            BudgetConfig(1.0, 0)

    def test_fractional_budget_allowed(self):
        assert BudgetConfig(2.5, 10).n_b == 2.5

    def test_overlarge_budget_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamp"):
            cfg = BudgetConfig(20.0, 10)
        assert cfg.n_b == 10.0
        assert cfg.clamped

    def test_exact_budget_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = BudgetConfig(10.0, 10)
        assert cfg.n_b == 10.0


def test_allocation_result_is_plain_accounting():
    res = AllocationResult(np.array([0.5]), 0.5, 0.5, 0)
    np.testing.assert_allclose(res.query_prob, [0.5])
